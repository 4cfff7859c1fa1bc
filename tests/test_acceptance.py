"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s`` or in the verbose test listing)
and enforcing its stated tolerance and runtime budget.
"""

import itertools
import json
import time

import numpy as np

from dpoqubo.backends import (
    ExhaustiveSolver,
    FinitePrecisionAdapter,
    SimulatedAnnealingSolver,
    SolveRequest,
    TabuSolver,
)
from dpoqubo.bcd import BcdConfig, bcd_solve, extract_subproblem
from dpoqubo.cli import main as cli_main
from dpoqubo.market import ReturnPanel
from dpoqubo.model import (
    Covariance,
    DpoConfig,
    Semicovariance,
    Shrinkage,
    encode_qubo,
    resolved_rho,
    risk_matrices,
)
from dpoqubo.planted import make_scale_separated_qubo
from dpoqubo.precision import quantize_int8, reduce_dynamic_range
from dpoqubo.qubo import (
    BlockPartition,
    IsingModel,
    Qubo,
    ising_energy,
    qubo_energies,
    qubo_energy,
    qubo_to_ising,
    scale_separation_report,
)


def _report(num, name, ok, detail):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _panel(rng, n_t, n_a, dt, scale=0.01):
    daily = rng.normal(0.0, scale, size=(n_t * dt, n_a))
    interval = daily.reshape(n_t, dt, -1).sum(axis=1)
    return ReturnPanel(
        interval_returns=interval,
        daily_returns=daily,
        dt=dt,
        assets=tuple(f"a{k}" for k in range(n_a)),
    )


def _random_block_tridiagonal(rng):
    n_blocks = int(rng.integers(3, 5))
    sizes = [int(rng.integers(1, 5)) for _ in range(n_blocks)]
    part = BlockPartition.from_sizes(sizes)
    dense = np.zeros((sum(sizes), sum(sizes)))
    for k in range(n_blocks):
        sk = part.block_slice(k)
        dense[sk, sk] = rng.normal(size=(sizes[k], sizes[k]))
        if k + 1 < n_blocks:
            sk1 = part.block_slice(k + 1)
            dense[sk, sk1] = rng.normal(size=(sizes[k], sizes[k + 1]))
    return Qubo.from_dense(dense, partition=part)


def _all_bits(n):
    counters = np.arange(2**n, dtype=np.uint32)
    return ((counters[:, None] >> np.arange(n)) & 1).astype(float)


class TestAcceptance:
    def test_criterion_01_energy_identity(self):
        # encoded energy plus the decoded portfolio score must be a constant
        # over every assignment; the score here is an independently coded
        # vectorized evaluation, not the library's own scorer
        start = time.perf_counter()
        shapes = [
            (1, 2, 2), (2, 1, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3),
            (1, 3, 2), (2, 2, 1), (3, 1, 2), (1, 4, 3), (2, 2, 2),
        ]
        rng = np.random.default_rng(42)
        worst = 0.0
        for i in range(20):
            n_t, n_a, n_r = shapes[i % len(shapes)]
            dt = int(rng.integers(3, 7))
            risk = [
                Covariance(),
                Semicovariance(benchmark=float(rng.normal(0, 0.001))),
                Shrinkage(),
            ][i % 3]
            cfg = DpoConfig(
                n_t=n_t, n_a=n_a, n_r=n_r,
                budget=int(rng.integers(1, n_a * (2**n_r - 1) + 1)),
                nu=float(rng.uniform(0, 0.05)), lam=float(rng.uniform(0.5, 2)),
                rho=None if i % 4 == 0 else float(rng.uniform(0.1, 2)),
                gamma=float(rng.uniform(0, 2)), dt=dt, risk=risk,
            )
            panel = _panel(rng, n_t, n_a, dt)
            risks = risk_matrices(cfg, panel)
            q = encode_qubo(cfg, panel, risks)
            bits = _all_bits(cfg.n)
            energies = qubo_energies(q, bits)
            powers = 2 ** np.arange(n_r)
            w = (bits.reshape(-1, n_t, n_a, n_r) @ powers).astype(float)
            gross = (w * panel.interval_returns).sum(axis=(1, 2))
            risk_term = 0.5 * cfg.gamma * sum(
                np.einsum("ka,ab,kb->k", w[:, t], risks[t].matrix, w[:, t])
                for t in range(n_t)
            )
            prev = np.concatenate(
                [np.zeros((w.shape[0], 1, n_a)), w[:, :-1]], axis=1
            )
            cost = cfg.nu * cfg.lam * ((w - prev) ** 2).sum(axis=(1, 2))
            rho = resolved_rho(cfg, panel)
            pen = rho * ((w.sum(axis=2) - cfg.budget) ** 2).sum(axis=1)
            s = energies + (gross - risk_term - cost - pen)
            scale = max(1.0, float(np.abs(energies).max()))
            worst = max(worst, float(np.abs(s - s[0]).max()) / scale)
        elapsed = time.perf_counter() - start
        _report(
            1, "energy identity", worst <= 1e-9 and elapsed < 30.0,
            f"max rel dev {worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_02_bcd_correctness(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        matches = 0
        for i in range(100):
            q = _random_block_tridiagonal(rng)
            part = q.partition
            res = bcd_solve(q, ExhaustiveSolver(), BcdConfig(seed=i))
            posts = [r.post_energy for r in res.trace]
            assert all(b <= a + 1e-12 for a, b in zip(posts, posts[1:])), (
                f"instance {i}: trace not monotone"
            )
            x = res.assignment.copy()
            incumbent = qubo_energy(q, x)
            for k in range(len(part)):
                sk = part.block_slice(k)
                width = sk.stop - sk.start
                for cand in itertools.product((0, 1), repeat=width):
                    y = x.copy()
                    y[sk] = cand
                    assert qubo_energy(q, y) >= incumbent - 1e-9, (
                        f"instance {i}: block {k} improvable"
                    )
            best = ExhaustiveSolver().solve(SolveRequest(q, seed=0))
            if res.energy <= best.reported_energy + 1e-9:
                matches += 1
        elapsed = time.perf_counter() - start
        _report(
            2, "bcd correctness", matches >= 80 and elapsed < 60.0,
            f"{matches}/100 global optima, {elapsed:.1f}s",
        )

    def test_criterion_03_subproblem_delta_identity(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            q = _random_block_tridiagonal(rng)
            part = q.partition
            x = rng.integers(0, 2, size=q.n).astype(np.int8)
            i = int(rng.integers(0, len(part)))
            sl = part.block_slice(i)
            width = sl.stop - sl.start
            y = rng.integers(0, 2, size=width).astype(np.int8)
            sub = extract_subproblem(q, x, i)
            local = qubo_energy(sub, y) - qubo_energy(sub, x[sl])
            x2 = x.copy()
            x2[sl] = y
            global_ = qubo_energy(q, x2) - qubo_energy(q, x)
            rel = abs(local - global_) / max(1.0, abs(global_))
            worst = max(worst, rel)
        _report(
            3, "subproblem delta identity", worst <= 1e-9,
            f"1000 tuples, max rel dev {worst:.2e}",
        )

    def test_criterion_04_quantization_contract(self):
        rng = np.random.default_rng(23)
        ok = True
        detail = "100 models"
        for i in range(100):
            n = int(rng.integers(2, 12))
            h = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            j = rng.normal(size=(n, n))
            j = (j + j.T) / 2
            np.fill_diagonal(j, 0.0)
            m = IsingModel(linear=h, quadratic=j)
            qm = quantize_int8(m)
            joint = np.concatenate([qm.linear, qm.quadratic.ravel()])
            if joint.min() < -128 or joint.max() > 127:
                ok, detail = False, f"model {i}: out of int8 range"
                break
            src = np.concatenate([m.linear, m.quadratic.ravel()])
            img = np.concatenate([qm.linear, qm.quadratic.ravel()])
            top = np.argmax(np.abs(src))
            if abs(int(img[top])) != 127 or np.sign(img[top]) != np.sign(src[top]):
                ok, detail = False, f"model {i}: extreme not mapped to +/-127"
                break
            for c in (0.5, 3.7, 1000.0):
                scaled = IsingModel(linear=c * h, quadratic=c * j)
                qs = quantize_int8(scaled)
                if not (
                    np.array_equal(qs.linear, qm.linear)
                    and np.array_equal(qs.quadratic, qm.quadratic)
                ):
                    ok, detail = False, f"model {i}: not scale invariant at {c}"
                    break
            if not ok:
                break
        _report(4, "quantization contract", ok, detail)

    def test_criterion_05_dynamic_range_tuning(self):
        rng = np.random.default_rng(31)
        checked = 0
        for i in range(200):
            n = int(rng.integers(2, 11))
            h = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
            j = rng.normal(size=(n, n))
            j = (j + j.T) / 2
            np.fill_diagonal(j, 0.0)
            m = IsingModel(linear=h, quadratic=j)
            res = reduce_dynamic_range(m)
            for step in res.steps:
                assert step.bits_after < step.bits_before, (
                    f"model {i}: step did not strictly decrease DR"
                )
            spins = 1 - 2 * _all_bits(n)
            orig = np.array([ising_energy(m, z) for z in spins])
            tuned = np.array([ising_energy(res.model, z) for z in spins])
            tol_o = 1e-9 * (1.0 + abs(orig.min()))
            tol_t = 1e-9 * (1.0 + abs(tuned.min()))
            argmin_o = set(np.flatnonzero(orig <= orig.min() + tol_o))
            argmin_t = set(np.flatnonzero(tuned <= tuned.min() + tol_t))
            assert argmin_o & argmin_t, f"model {i}: minimizer not preserved"
            checked += 1
        _report(
            5, "dynamic range tuning", checked == 200,
            f"{checked}/200 models preserve a minimizer",
        )

    def test_criterion_06_scale_separation_pattern(self):
        holds = 0
        for seed in range(10):
            inst = make_scale_separated_qubo(seed)
            if scale_separation_report(inst.qubo).ratio >= 1.0 / 255.0:
                continue
            ising = qubo_to_ising(inst.qubo)
            qm = quantize_int8(ising)
            part = inst.qubo.partition
            labels = np.concatenate(
                [
                    np.full(sl.stop - sl.start, k)
                    for k, sl in enumerate(
                        part.block_slice(k) for k in range(len(part))
                    )
                ]
            )
            inter = labels[:, None] != labels[None, :]
            if np.count_nonzero(qm.quadratic[inter]) != 0:
                continue
            adapter = FinitePrecisionAdapter(ExhaustiveSolver())
            galloc = inst.decode(
                adapter.solve(SolveRequest(inst.qubo, seed=0)).assignment
            )
            if np.all(galloc.invested_per_step() == inst.config.budget):
                continue  # pattern demands the whole-model solve be infeasible
            balloc = inst.decode(
                bcd_solve(inst.qubo, adapter, BcdConfig(seed=0)).assignment
            )
            if not np.all(balloc.invested_per_step() == inst.config.budget):
                continue
            holds += 1
        _report(
            6, "scale separation pattern", holds >= 9,
            f"{holds}/10 seeded instances show the contrast",
        )

    def test_criterion_07_instance_sizes(self):
        rng = np.random.default_rng(3)
        sizes = []
        for n_t, expect in ((2, 48), (6, 144), (22, 528)):
            cfg = DpoConfig(n_t=n_t, n_a=6, n_r=4, budget=15, dt=3)
            panel = _panel(rng, n_t, 6, 3)
            q = encode_qubo(cfg, panel)
            sizes.append((q.n, expect))
        ok = all(n == e for n, e in sizes)
        _report(
            7, "problem sizes", ok,
            "n = " + ", ".join(f"{n} (want {e})" for n, e in sizes),
        )

    def test_criterion_08_risk_estimators(self):
        rng = np.random.default_rng(17)
        worst_eig = 0.0
        for i in range(500):
            n_a = int(rng.integers(2, 7))
            dt = int(rng.integers(3, 9))
            panel = _panel(rng, 1, n_a, dt, scale=float(rng.uniform(0.002, 0.05)))
            cov = Covariance().estimate(panel, 0)
            semi = Semicovariance(benchmark=float(rng.normal(0, 0.005))).estimate(panel, 0)
            shr = Shrinkage().estimate(panel, 0)
            for risk in (cov, semi, shr):
                s = risk.matrix
                norm = float(np.linalg.norm(s))
                assert np.abs(s - s.T).max() <= 1e-12 * (1.0 + norm), (
                    f"panel {i}: asymmetric"
                )
                min_eig = float(np.linalg.eigvalsh(s).min())
                assert min_eig >= -1e-10 * norm, f"panel {i}: eig {min_eig}"
                worst_eig = min(worst_eig, min_eig if norm == 0 else min_eig / max(norm, 1e-300))
            d = shr.shrinkage
            assert d is not None and 0.0 <= d.delta <= 1.0, f"panel {i}: delta {d}"
            assert abs(np.trace(shr.matrix) - np.trace(cov.matrix)) <= 1e-10, (
                f"panel {i}: trace moved"
            )
        _report(
            8, "risk estimators", True,
            f"500 panels, worst scaled eig {worst_eig:.2e}",
        )

    def test_criterion_09_backend_calibration(self):
        start = time.perf_counter()
        rng = np.random.default_rng(47)
        sa_hits = tabu_hits = 0
        for i in range(100):
            dense = rng.normal(size=(10, 10))
            q = Qubo.from_dense(dense)
            best = ExhaustiveSolver().solve(SolveRequest(q, seed=0))
            sa = SimulatedAnnealingSolver().solve(SolveRequest(q, seed=i))
            tabu = TabuSolver().solve(SolveRequest(q, seed=i))
            if sa.reported_energy <= best.reported_energy + 1e-9:
                sa_hits += 1
            if tabu.reported_energy <= best.reported_energy + 1e-9:
                tabu_hits += 1
        elapsed = time.perf_counter() - start
        _report(
            9, "backend calibration",
            sa_hits >= 95 and tabu_hits >= 95 and elapsed < 120.0,
            f"sa {sa_hits}/100, tabu {tabu_hits}/100, {elapsed:.1f}s",
        )

    def test_criterion_10_end_to_end_determinism(self, tmp_path):
        start = time.perf_counter()
        args = [
            "matrix", "--bundled", "--n-t", "2", "--n-a", "6", "--n-r", "4",
            "--budget", "15", "--dt", "24", "--backends", "sa,tabu",
            "--runs", "3", "--seed", "20230102",
        ]
        for sub in ("one", "two"):
            assert cli_main(args + ["--out", str(tmp_path / sub)]) == 0
        one = sorted(p.name for p in (tmp_path / "one").iterdir())
        two = sorted(p.name for p in (tmp_path / "two").iterdir())
        assert one == two, "report file sets differ"
        diffs = []
        for name in one:
            if name == "timings.json":  # documented volatile sidecar
                continue
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            if a != b:
                diffs.append(name)
        summary = json.loads((tmp_path / "one" / "summary.json").read_text())
        elapsed = time.perf_counter() - start
        _report(
            10, "end-to-end determinism",
            not diffs and len(summary["cells"]) == 8 and elapsed < 600.0,
            f"{len(one)} files byte-identical, both runs {elapsed:.1f}s"
            + (f", diffs: {diffs}" if diffs else ""),
        )
