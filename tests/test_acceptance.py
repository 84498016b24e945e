"""End-to-end acceptance gate.

Nine numbered criteria, one test each. Every test prints a single
PASS/FAIL line with the measured quantity and wall time, and fails if the
computation exceeds its time budget. Instance generators are seeded, so
reruns are exact.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from igk import (
    Measure,
    PowerMeasure,
    SignedMeasure,
    as_kernel,
    canonical_tensor,
    compose,
    conditional_expectation,
    congruent_kernel_from_embedding,
    decompose_kernel,
    d_pow_abs,
    d_pow_signed,
    evaluate,
    fisher_metric,
    fisher_neyman_check,
    is_congruent,
    is_sufficient,
    lk_norm,
    multiply,
    pow_abs,
    pow_signed,
    power_norm,
    power_of_measure,
    power_path,
    pushforward,
    tau_n,
    tv_norm,
)
from igk import dsl, serialize
from igk.families import bernoulli, ex41, ex_suff, ex_suff_projection
from igk.infoloss import check_monotonicity

from conftest import (
    dsl_model,
    exp_family_model,
    random_kernel,
    random_measure_mass,
    random_onto_statistic,
    random_space,
    random_tree,
    smooth_expr_text,
)


@contextmanager
def criterion(number, label, budget_s):
    t0 = time.perf_counter()
    detail = {}
    try:
        yield detail
    except BaseException:
        print(
            "criterion {} FAIL: {} ({:.2f}s)".format(
                number, label, time.perf_counter() - t0
            )
        )
        raise
    elapsed = time.perf_counter() - t0
    extra = "; ".join("{}={}".format(k, v) for k, v in detail.items())
    print(
        "criterion {} PASS: {}{} ({:.2f}s, budget {:g}s)".format(
            number, label, " [" + extra + "]" if extra else "", elapsed, budget_s
        )
    )
    assert elapsed < budget_s, "criterion {} took {:.2f}s, budget {:g}s".format(
        number, elapsed, budget_s
    )


def test_criterion_1_bernoulli_fisher_closed_form():
    with criterion(1, "Bernoulli Fisher matches 1/(xi(1-xi))", 1.0) as detail:
        model = bernoulli()
        worst = 0.0
        for xi in (0.1, 0.25, 0.5):
            got = fisher_metric(model, [xi]).values[0, 0]
            worst = max(worst, abs(got - 1.0 / (xi * (1.0 - xi))))
        assert worst <= 1e-10
        detail["max_abs_err"] = "{:.2e}".format(worst)


def test_criterion_2_monotonicity_never_violated():
    with criterion(2, "1000 seeded Fisher monotonicity instances", 30.0) as detail:
        worst_gap = math.inf
        for s in range(1000):
            rng = np.random.default_rng(200_000 + s)
            n_atoms = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 4))
            model = dsl_model(rng, n_atoms, dim, serialize)
            target = random_space(rng, int(rng.integers(1, 7)), tag="t")
            k = random_kernel(rng, model.space, target)
            xi = rng.uniform(-0.9, 0.9, size=dim)
            report = check_monotonicity(model, k, xi, n_random=8, seed=s)
            assert report.passed, "violation at seed {}: {}".format(
                s, report.violations
            )
            assert report.eigen_gap >= -1e-10
            worst_gap = min(worst_gap, report.eigen_gap)
        detail["instances"] = 1000
        detail["min_eigen_gap"] = "{:.2e}".format(worst_gap)


def test_criterion_3_conditional_expectation_contracts_lk():
    with criterion(3, "1000 L^k contraction instances with congruent equality", 30.0) as detail:
        ks = (1.0, 1.5, 2.0, 3.0)
        n_congruent = 0
        worst_excess = -math.inf
        worst_eq = 0.0
        for s in range(1000):
            rng = np.random.default_rng(300_000 + s)
            k = ks[s % 4]
            congruent = int(rng.integers(0, 4)) == 0
            kappa = None
            if congruent:
                big = random_space(rng, int(rng.integers(2, 9)))
                kappa = random_onto_statistic(
                    rng, big, int(rng.integers(1, min(7, big.n_atoms + 1)))
                )
                base = Measure(big, random_measure_mass(rng, big.n_atoms))
                kernel = congruent_kernel_from_embedding(kappa, base)
            else:
                src = random_space(rng, int(rng.integers(1, 9)))
                tgt = random_space(rng, int(rng.integers(1, 7)), tag="t")
                kernel = random_kernel(rng, src, tgt)
            mu = Measure(
                kernel.source, random_measure_mass(rng, kernel.source.n_atoms)
            )
            phi = 2.0 * rng.standard_normal(kernel.source.n_atoms)
            phi_prime = conditional_expectation(kernel, mu, phi)
            lhs = lk_norm(phi_prime, pushforward(kernel, mu), k)
            rhs = lk_norm(phi, mu, k)
            worst_excess = max(worst_excess, lhs - rhs)
            assert lhs <= rhs + 1e-10, "contraction fails at seed {}".format(s)
            if congruent:
                n_congruent += 1
                assert is_congruent(kernel, kappa)
                worst_eq = max(worst_eq, abs(lhs - rhs))
                assert abs(lhs - rhs) <= 1e-10, "equality fails at seed {}".format(s)
        assert n_congruent > 100
        detail["congruent_instances"] = n_congruent
        detail["max_excess"] = "{:.2e}".format(worst_excess)
        detail["max_equality_gap"] = "{:.2e}".format(worst_eq)


def test_criterion_4_power_measure_algebra():
    with criterion(4, "500 instances each of four power-algebra laws", 30.0) as detail:
        worst_fd = 0.0
        for s in range(500):
            rng = np.random.default_rng(400_000 + s)
            n = int(rng.integers(2, 7))
            sp = random_space(rng, n)
            mu = Measure(sp, random_measure_mass(rng, n))

            # norm identity ||mu^r|| = mu(space)^r
            r = float(rng.uniform(0.05, 1.0))
            lhs = power_norm(power_of_measure(mu, r))
            rhs = mu.total() ** r
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

            # Hoelder bound for the product
            r1 = float(rng.uniform(0.05, 0.9))
            r2 = float(rng.uniform(0.05, 1.0 - r1))
            a = PowerMeasure(sp, r1, rng.standard_normal(n))
            b = PowerMeasure(sp, r2, rng.standard_normal(n))
            assert power_norm(multiply(a, b)) <= power_norm(a) * power_norm(b) + 1e-10

            # recombination mu^r * mu^(1-r) = mu
            r = float(rng.uniform(0.05, 0.95))
            back = multiply(power_of_measure(mu, r), power_of_measure(mu, 1.0 - r))
            assert back.r == 1.0
            np.testing.assert_allclose(back.coeff, mu.mass, rtol=1e-12, atol=0.0)

            # derivative of the power maps against central differences
            r = float(rng.uniform(0.1, 0.5))
            k = float(rng.uniform(1.1, 1.0 / r))
            coeff = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            nu = PowerMeasure(sp, r, coeff)
            rho = PowerMeasure(sp, r, rng.standard_normal(n))
            eps = 1e-7
            up = PowerMeasure(sp, r, nu.coeff + eps * rho.coeff)
            dn = PowerMeasure(sp, r, nu.coeff - eps * rho.coeff)
            for func, dfunc in ((pow_signed, d_pow_signed), (pow_abs, d_pow_abs)):
                fd = (func(up, k).coeff - func(dn, k).coeff) / (2.0 * eps)
                got = dfunc(nu, rho, k).coeff
                rel = np.abs(got - fd) / np.maximum(1.0, np.abs(fd))
                worst_fd = max(worst_fd, float(rel.max()))
                assert rel.max() <= 1e-6, "d_pow mismatch at seed {}".format(s)
        detail["instances"] = "4x500"
        detail["max_fd_rel_err"] = "{:.2e}".format(worst_fd)


def test_criterion_5_kernel_decomposition_reproduces():
    with criterion(5, "200 random kernels decompose and recompose", 10.0) as detail:
        worst = 0.0
        for s in range(200):
            rng = np.random.default_rng(500_000 + s)
            src = random_space(rng, int(rng.integers(1, 7)))
            tgt = random_space(rng, int(rng.integers(1, 7)), tag="t")
            kernel = random_kernel(rng, src, tgt)
            k_cong, kappa1, kappa2 = decompose_kernel(kernel)
            assert is_congruent(k_cong, kappa1)
            back = compose(as_kernel(kappa2), k_cong)
            err = float(np.abs(back.rows - kernel.rows).max())
            worst = max(worst, err)
            assert err <= 1e-14
        detail["instances"] = 200
        detail["max_entry_err"] = "{:.2e}".format(worst)


def test_criterion_6_l1_difference_quotients():
    with criterion(6, "non-smooth family: L1 quotients at 20000 cells", 10.0) as detail:
        model = ex41(20000)
        base = evaluate(model, [0.0]).mass

        def quotient(x):
            nu = SignedMeasure(model.space, (evaluate(model, [x]).mass - base) / x)
            return tv_norm(nu)

        values = [quotient(x) for x in (1.0, 0.5, 0.3, 0.2)]
        assert abs(values[0] - math.pi / 2.0) <= 1e-3
        assert all(a > b for a, b in zip(values, values[1:]))
        detail["quotient_at_1"] = "{:.6f}".format(values[0])
        detail["sequence"] = ">".join("{:.4f}".format(v) for v in values)


def test_criterion_7_sufficient_projection_without_factorization():
    with criterion(7, "projection is sufficient yet never factorizes", 20.0) as detail:
        model = ex_suff(200, 100)
        kappa = ex_suff_projection(200, 100)
        grid = [[x] for x in (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0)]
        worst = 0.0
        for k in (1.5, 2.0, 3.0):
            ok, report = is_sufficient(model, kappa, grid, k, tol=1e-9)
            assert ok, "loss {} at k={}".format(report.max_loss, k)
            worst = max(worst, report.max_loss)
        result = fisher_neyman_check(model, kappa, grid)
        assert result.status == "not-factorizable"
        # run witnesses disagree across the sign change: mu_+ is not mu_-
        assert result.conflict is not None
        assert result.conflict.xi_a[0] < 0.0 <= result.conflict.xi_b[0]
        assert len(result.subgrids) == 3
        detail["max_loss"] = "{:.2e}".format(worst)
        detail["witness_atom"] = result.conflict.atom
        detail["witness_variation"] = "{:.4f}".format(result.conflict.variation)


def test_criterion_8_canonical_tensor_agrees_with_tau_n():
    with criterion(8, "tau_n equals the canonical n-tensor on power paths", 20.0) as detail:
        worst = 0.0
        for s in range(200):
            rng = np.random.default_rng(800_000 + s)
            dim = int(rng.integers(1, 4))
            model = exp_family_model(rng, int(rng.integers(2, 9)), dim)
            xi = rng.uniform(-0.8, 0.8, size=dim)
            for n in (1, 2, 3, 4):
                dirs = [rng.standard_normal(dim) for _ in range(n)]
                direct = tau_n(model, xi, dirs)
                velocities = [power_path(model, xi, v, n)[1] for v in dirs]
                paired = canonical_tensor(*velocities)
                rel = abs(direct - paired) / max(1.0, abs(direct), abs(paired))
                worst = max(worst, rel)
                assert rel <= 1e-10, "order {} mismatch at seed {}".format(n, s)
        detail["instances"] = "200x4"
        detail["max_rel_err"] = "{:.2e}".format(worst)


def test_criterion_9_symbolic_derivatives_and_roundtrips():
    with criterion(9, "1000 derivative checks and 1000 print/parse round trips", 10.0) as detail:
        worst = 0.0
        h = 1e-6
        for s in range(1000):
            rng = np.random.default_rng(900_000 + s)
            expr = dsl.parse(smooth_expr_text(rng))
            params = rng.uniform(-0.8, 0.8, size=2)
            coords = rng.uniform(-0.8, 0.8, size=(3, 1))
            guard = 0
            # oversized values would turn the difference quotient into pure
            # cancellation noise; redraw (deterministically) instead
            while np.abs(dsl.eval_on_grid(expr, coords, params)).max() > 50.0:
                expr = dsl.parse(smooth_expr_text(rng))
                guard += 1
                assert guard < 50
            for j in (1, 2):
                sym = dsl.eval_on_grid(dsl.differentiate(expr, j), coords, params)
                up = params.copy()
                up[j - 1] += h
                dn = params.copy()
                dn[j - 1] -= h
                fd = (
                    dsl.eval_on_grid(expr, coords, up)
                    - dsl.eval_on_grid(expr, coords, dn)
                ) / (2.0 * h)
                rel = np.abs(sym - fd) / np.maximum(1.0, np.abs(fd))
                worst = max(worst, float(rel.max()))
                assert rel.max() <= 1e-7, "derivative mismatch at seed {}".format(s)
        for s in range(1000):
            rng = np.random.default_rng(910_000 + s)
            tree = random_tree(rng)
            assert dsl.parse(dsl.print_expr(tree)) == tree, "round trip at seed {}".format(s)
        detail["max_fd_rel_err"] = "{:.2e}".format(worst)
        detail["round_trips"] = 1000
