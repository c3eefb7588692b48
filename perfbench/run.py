"""normaug benchmark: three closed-loop workloads driven through the public API.

    python3 perfbench/run.py --workload train_aug --seed 0 --seconds 35 --trace 0

Workloads (one caller; each call waits for the previous one):
  train_aug    repeated `on_aug` training runs (`experiments.run_variant`)
  train_main   the same for the `on` variant: main route only, no bank
  eval_fusion  1000-row `inference.evaluate` calls over a large target split,
               every fusion strategy and sub-path scope, with interleaved
               divergence + perturbation-probe calls, on a reloaded checkpoint

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics from spans recorded around normaug's public functions (see
tracer.py), and writes every span to perfbench/out/. The last line of
standard output is the result object; the line before it records the
machine and library versions. Times and rates are reported at a reference
host speed, from a fixed kernel timed through the run (HostSpeed); the info
line keeps every metric as measured too. Metric definitions are in
perfbench/README.md.
"""

from __future__ import annotations

import os

# The BLAS pools must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from bisect import bisect_right  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("train_aug", "train_main", "eval_fusion")
TRAIN_VARIANT = {"train_aug": "on_aug", "train_main": "on"}
TAPE_OPS = ("add", "sub", "mul", "div", "neg", "power", "sqrt", "mean", "relu",
            "matmul", "softmax", "log_softmax", "gather_labels", "gather_rows",
            "scatter_rows")
MEASURE_ROOTS = ("bench.train_run", "bench.evaluate", "bench.diagnose")


@dataclass(frozen=True)
class Scale:
    """Sizes of one run. FULL is the benchmark; TINY only checks the plumbing."""

    epochs: int = 20            # training schedule of train_* (TrainConfig default)
    iters_per_epoch: int = 50
    # set-ups per run, setup_s is their median: a train_* set-up takes 0.1-0.3 s
    # and jumps between the two, an eval_fusion set-up about 2 s
    train_setup_reps: int = 11
    eval_setup_reps: int = 5
    eval_per_cell: int = 800    # eval_fusion: 4000 target rows per domain
    eval_chunk: int = 1000      # rows per evaluate call
    warm_epochs: int = 2        # eval_fusion: brief on_aug training in set-up
    warm_iters: int = 50
    diag_every: int = 4         # fusion strategies per diagnose call
    diag_rows: int = 1000       # rows per source domain in divergence
    probe_rows: int = 64
    host_every_calls: int = 10  # eval_fusion: evaluate calls per host-speed sample
    host_per_setup: int = 3     # host-speed samples before each set-up


FULL = Scale()
TINY = Scale(epochs=2, iters_per_epoch=5, train_setup_reps=2, eval_setup_reps=2,
             eval_per_cell=200, warm_epochs=1, warm_iters=30, diag_rows=200)


class ProgramMissing(RuntimeError):
    pass


def import_normaug():
    """Import normaug from the `src/` beside this directory, and nowhere else."""
    if not (SRC / "normaug" / "__init__.py").is_file():
        raise ProgramMissing(f"no normaug package under {SRC}")
    sys.path.insert(0, str(SRC))
    import normaug
    if Path(normaug.__file__).resolve().parent != (SRC / "normaug").resolve():
        raise ProgramMissing(f"normaug imported from {normaug.__file__}, not {SRC}")
    return normaug


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}: {deps.get('openblas configuration', '')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(blas.split()),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# helpers


class Checks:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.messages) < 20:
                self.messages.append(what)
                print(f"check failed: {what}", file=sys.stderr)


class StepTimer:
    """Times every `training.train_step` call by rebinding the module name,
    and samples the host's speed before every `every`-th call."""

    def __init__(self, training, host: "HostSpeed", every: int):
        self.training, self.host, self.every = training, host, every
        self.steps: list[tuple[int, int]] = []  # (start, ns) of each call
        self.host_ns = 0  # kernel time spent between the calls

    def __enter__(self):
        step, steps, host, every = self.training.train_step, self.steps, self.host, self.every
        self.original = step

        def timed(*args, **kwargs):
            if len(steps) % every == 0:
                self.host_ns += host.sample()
            t0 = perf_counter_ns()
            out = step(*args, **kwargs)
            steps.append((t0, perf_counter_ns() - t0))
            return out

        self.training.train_step = timed
        return self

    def __exit__(self, *exc):
        self.training.train_step = self.original
        return False


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_dataset(a, b) -> bool:
    return (same_bits(a.features, b.features) and same_bits(a.labels, b.labels)
            and same_bits(a.domain_ids, b.domain_ids))


def run_digest(rows: list[dict], target_accuracy: float) -> str:
    """Bitwise digest of a training run's per-epoch log and final score."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(f"{k}={float(v).hex()}" for k, v in sorted(row.items())).encode())
    h.update(float(target_accuracy).hex().encode())
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def loop_until(budget_ns: int, min_units: int, unit) -> list[int]:
    """Run `unit()` (returns its timed ns) while the next one is expected to
    fit in the budget, and at least `min_units` times."""
    spent: list[int] = []
    while len(spent) < min_units or sum(spent) + sum(spent) / len(spent) <= budget_ns:
        spent.append(unit())
    return spent


class HostSpeed:
    """The host's speed, from a fixed reference kernel timed at intervals
    through the run, always outside the timed regions.

    The shared host's speed moves by up to a third, in stretches of seconds
    to minutes, and every timing moves with it. The kernel does the
    program's kind of work (small matmuls and elementwise ops, forward and
    backward, driven from Python) on fixed inputs, so its time tracks the
    host's speed for the program. The factor at a sample is the median
    kernel time over the WINDOW samples around it, over REF_NS; a stretch of
    time between two samples, divided by the factor there, is the time it
    would have taken at the speed at which the kernel takes REF_NS."""

    REF_NS = 4_000_000
    LAYERS = 40
    WINDOW = 11

    def __init__(self):
        rng = np.random.default_rng(20230725)
        self.x = rng.standard_normal((48, 64))
        self.w = rng.standard_normal((64, 64)) / 8.0
        self.t: list[int] = []
        self.ns: list[int] = []
        self._factors: np.ndarray | None = None

    def sample(self) -> int:
        """Time the kernel once; returns its ns."""
        t0 = perf_counter_ns()
        x, w, saved = self.x, self.w, []
        for _ in range(self.LAYERS):
            z = np.maximum(x @ w, 0.0)
            mu = z.mean(axis=0)
            sd = z.std(axis=0) + 1e-5
            saved.append((z, sd))
            x = (z - mu) / sd
        g = np.ones_like(x)
        for z, sd in reversed(saved):
            g = ((g / sd) * (z > 0.0)) @ w.T
        dt = perf_counter_ns() - t0
        self.t.append(t0)
        self.ns.append(dt)
        self._factors = None
        return dt

    def factors(self) -> np.ndarray:
        if self._factors is None:
            ns, n = np.asarray(self.ns, dtype=float), len(self.ns)
            lo = [min(max(i - self.WINDOW // 2, 0), max(n - self.WINDOW, 0)) for i in range(n)]
            self._factors = np.array([np.median(ns[a:a + self.WINDOW]) for a in lo]) / self.REF_NS
        return self._factors

    def reference_ns(self, start: int, ns: int) -> float:
        """`ns` nanoseconds from `start`, at the reference speed."""
        t, f = self.t, self.factors()
        i, end, total = max(bisect_right(t, start) - 1, 0), start + ns, 0.0
        while True:
            stop = end if i + 1 >= len(t) else min(end, t[i + 1])
            total += (stop - start) / f[i]
            if stop >= end:
                return total
            start, i = stop, i + 1


def raw_ns(start: int, ns: int) -> float:
    return float(ns)


class Bench:
    """State shared by the workloads of one run."""

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        from normaug import datagen, diagnostics, experiments, inference, model, tensor, training
        self.datagen, self.diagnostics, self.experiments = datagen, diagnostics, experiments
        self.inference, self.model_mod, self.T, self.training = inference, model, tensor, training
        self.scale, self.seed, self.workdir = scale, seed, workdir
        self.checks = Checks()
        self.host = HostSpeed()
        self.tracer = None  # set while spans are recorded

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def dataset_roundtrip(self, per_cell: int):
        """Generate the benchmark data and pass it through the CSV format."""
        ds, target_domain = self.experiments.make_benchmark(self.seed, per_cell=per_cell)
        path = self.workdir / "dataset.csv"
        self.datagen.save(ds, path)
        return ds, self.datagen.load(path), target_domain


# ---------------------------------------------------------------------------
# training workloads


class TrainWorkload:
    def __init__(self, bench: Bench, variant: str):
        self.b, self.variant = bench, variant
        s = bench.scale
        self.config = bench.training.TrainConfig(epochs=s.epochs, iters_per_epoch=s.iters_per_epoch)
        self.steps_per_run = s.epochs * s.iters_per_epoch
        self.setup_reps = s.train_setup_reps
        self.digest: str | None = None
        self.tgt_acc: float | None = None

    def setup(self) -> tuple[int, int]:
        """One set-up; returns its (start, ns)."""
        b = self.b
        with b.span("bench.setup"):
            t0 = perf_counter_ns()
            ds, loaded, target_domain = b.dataset_roundtrip(b.datagen.DEFAULT_PER_CELL)
            dt = perf_counter_ns() - t0
        b.checks.op(same_dataset(ds, loaded), "set-up: CSV round trip changed the dataset")
        self.dataset, self.target_domain = loaded, target_domain
        n_sources = len(set(loaded.domain_ids.tolist())) - 1
        self.rows_per_step = self.config.batch_per_domain * n_sources
        return t0, dt

    def unit(self, record: dict) -> int:
        """One whole training run; returns its wall ns."""
        b = self.b
        with StepTimer(b.training, b.host, self.config.iters_per_epoch) as timer, \
                b.span("bench.train_run"):
            t0 = perf_counter_ns()
            try:
                res = b.experiments.run_variant(self.dataset, self.target_domain, self.variant,
                                                b.seed, self.config)
            except Exception:  # a failed run counts as failed steps; keep measuring
                traceback.print_exc()
                res = None
            wall = perf_counter_ns() - t0
        dt = wall - timer.host_ns
        record["steps"].extend(timer.steps)
        record["runs"].append((t0, wall, dt))
        record["rows"] += len(timer.steps) * self.rows_per_step
        if res is None:
            b.checks.op(False, "training run raised", self.steps_per_run)
            return dt
        digest = run_digest(res.result.metrics, res.target_accuracy)
        if self.digest is None:
            self.digest, self.tgt_acc = digest, res.target_accuracy
        ok = (digest == self.digest and len(timer.steps) == self.steps_per_run
              and 0.0 <= res.target_accuracy <= 1.0)
        b.checks.op(ok, "same-seed training runs differ", self.steps_per_run)
        return dt

    def end_to_end(self, record: dict, clock) -> dict:
        """Rows per second over whole training runs (kernel samples taken
        inside a run are left out of its time) and train-step latency."""
        ms = [clock(t, ns) / 1e6 for t, ns in record["steps"]]
        run_ns = sum(clock(t, wall) * ns / wall for t, wall, ns in record["runs"])
        return {
            "rows_per_s": record["rows"] / (run_ns / 1e9),
            "op_ms_p50": percentile(ms, 50),
            "op_ms_p90": percentile(ms, 90),
            "samples": {"train_runs": len(record["runs"]), "train_steps": len(ms)},
        }

    def target_accuracy(self) -> float:
        return self.tgt_acc if self.tgt_acc is not None else float("nan")


# ---------------------------------------------------------------------------
# evaluation workload


class EvalWorkload:
    def __init__(self, bench: Bench):
        self.b = bench
        inf = bench.inference
        self.strategies = list(inf.FusionStrategy)
        self.setup_reps = bench.scale.eval_setup_reps
        self.refs: dict[tuple, object] = {}
        self.digest: str | None = None
        self.model = None
        self.cycles = 0
        self.default_acc: list[float] = []

    def setup(self) -> tuple[int, int]:
        """One set-up; returns its (start, ns)."""
        b, s = self.b, self.b.scale
        with b.span("bench.setup"):
            t0 = perf_counter_ns()
            ds, loaded, target_domain = b.dataset_roundtrip(s.eval_per_cell)
            warm = b.training.TrainConfig(epochs=s.warm_epochs, iters_per_epoch=s.warm_iters)
            trained = b.experiments.run_variant(loaded, target_domain, "on_aug", b.seed, warm)
            ckpt = b.workdir / "model.ckpt"
            b.model_mod.save_checkpoint(trained.result.model, ckpt)
            model, _, _ = b.model_mod.load_checkpoint(ckpt)
            sources, target = b.datagen.split_lodo(loaded, target_domain)
            rng = np.random.default_rng(b.seed)
            by_domain = {}
            for d in np.unique(sources.domain_ids):
                rows = sources.domain_rows(int(d))
                pick = np.sort(rng.choice(rows, size=min(s.diag_rows, rows.size), replace=False))
                by_domain[int(d)] = sources.features[pick]
            dt = perf_counter_ns() - t0

        b.checks.op(same_dataset(ds, loaded), "set-up: CSV round trip changed the dataset")
        digest = run_digest(trained.result.metrics, trained.target_accuracy)
        self.digest = self.digest or digest
        b.checks.op(digest == self.digest, "set-up: same-seed training runs differ")
        b.checks.op(self.forwards_match(trained.result.model, model, target.features),
                    "set-up: reloaded checkpoint forwards differ")

        self.model, self.target, self.by_domain = model, target, by_domain
        n = len(target)
        self.chunks = [(a, min(a + s.eval_chunk, n)) for a in range(0, n, s.eval_chunk)]
        domains = sorted(by_domain)
        probe_rng = np.random.default_rng(b.seed + 1)

        def draw(x):
            return x[probe_rng.choice(x.shape[0], size=s.probe_rows, replace=False)]

        self.probe = draw(by_domain[domains[0]])
        self.companions = [("probe_copy", self.probe.copy())]
        self.companions += [(f"domain_{d}", draw(by_domain[d])) for d in domains[1:]]
        self.companions.append(("target", draw(target.features)))
        return t0, dt

    def forwards_match(self, saved, reloaded, x) -> bool:
        x = x[: self.b.scale.eval_chunk]
        with self.b.T.no_grad():
            outs = [(m.forward_main(x, mode="eval")[0].data,
                     [m.forward_subpath(x, s, mode="eval").data for s in m.banks[0].subsets()])
                    for m in (saved, reloaded)]
        (ma, sa), (mb, sb) = outs
        return same_bits(ma, mb) and len(sa) == len(sb) and all(map(same_bits, sa, sb))

    def reference(self, strategy, scope):
        """Whole-target fused probabilities of one (strategy, scope) pair,
        from a single `predict`."""
        key = (strategy, scope)
        if key not in self.refs:
            self.refs[key] = self.b.inference.predict(self.model, self.target.features,
                                                      strategy, scope)[0]
        return self.refs[key]

    def unit(self, record: dict) -> int:
        """One cycle over the 8 fusion strategies. Each strategy scores every
        chunk with the default independent_only scope and one chunk (rotating)
        with all_units, so the latency median falls inside the default
        scope's cluster instead of in the gap between the two. A diagnose
        call follows every `diag_every` strategies. Returns the ns spent
        inside the calls."""
        b = self.b
        scopes = b.inference.SubpathScope
        spent = 0
        first_cycle = self.cycles == 0
        K = len(self.chunks)
        for si, strategy in enumerate(self.strategies):
            calls = [(scopes.INDEPENDENT_ONLY, k) for k in range(K)]
            calls.append((scopes.ALL_UNITS, (self.cycles + si) % K))
            for scope, k in calls:
                lo, hi = self.chunks[k]
                ref = self.reference(strategy, scope)
                x, y = self.target.features[lo:hi], self.target.labels[lo:hi]
                with b.span("bench.evaluate"):
                    t0 = perf_counter_ns()
                    try:
                        rep = b.inference.evaluate(self.model, x, y, strategy, scope)
                    except Exception:
                        traceback.print_exc()
                        rep = None
                    dt = perf_counter_ns() - t0
                spent += dt
                record["rows"] += hi - lo
                record["evals"].append((t0, dt))
                ok = rep is not None
                if ok:
                    p = rep.fused_probabilities
                    ok = (same_bits(p, ref[lo:hi]) and bool(np.isfinite(p).all())
                          and float(np.abs(p.sum(axis=1) - 1.0).max()) <= 1e-12)
                    if (first_cycle and strategy is self.strategies[0]
                            and scope is scopes.INDEPENDENT_ONLY):
                        self.default_acc.append(rep.fused_accuracy * (hi - lo))
                b.checks.op(ok, f"evaluate {strategy.value}/{scope.value} rows {lo}:{hi}")
                if len(record["evals"]) % b.scale.host_every_calls == 0:
                    b.host.sample()
            if (si + 1) % b.scale.diag_every == 0:
                spent += self.diagnose(record, (self.cycles + si) % K)
        self.cycles += 1
        return spent

    def diagnose(self, record: dict, k: int) -> int:
        b = self.b
        lo, hi = self.chunks[k]
        with b.span("bench.diagnose"):
            t0 = perf_counter_ns()
            try:
                div = b.diagnostics.divergence(self.model, self.by_domain,
                                               self.target.features[lo:hi])
                probe = b.diagnostics.perturbation_probe(self.model, self.probe, self.companions)
            except Exception:
                traceback.print_exc()
                div = probe = None
            dt = perf_counter_ns() - t0
        record["diags"].append((t0, dt))
        ok = (probe is not None and dict(probe)["probe_copy"] == 0.0
              and bool(np.isfinite([d for _, d in probe] + [div.d_s2s, div.d_s2t]).all()))
        b.checks.op(ok, "diagnose: probe copy moved or non-finite distances")
        return dt

    def end_to_end(self, record: dict, clock) -> dict:
        """Target rows per second of the time inside `evaluate` and diagnose
        calls, and `evaluate` latency."""
        ms = [clock(t, ns) / 1e6 for t, ns in record["evals"]]
        busy_ns = sum(clock(t, ns) for t, ns in record["evals"] + record["diags"])
        return {
            "rows_per_s": record["rows"] / (busy_ns / 1e9),
            "op_ms_p50": percentile(ms, 50),
            "op_ms_p90": percentile(ms, 90),
            "samples": {"evaluate_calls": len(ms), "diagnose_calls": len(record["diags"])},
        }

    def target_accuracy(self) -> float:
        return sum(self.default_acc) / len(self.target)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(tracer, workload: str, overhead_frac: float, tgt_acc: float, clock) -> dict:
    measured = set(tracer.descendants_of(MEASURE_ROOTS))
    in_setup = tracer.descendants_of(("bench.setup",))

    def span_ns(i):
        return clock(tracer.start[i], tracer.end[i] - tracer.start[i])

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in measured:
        name = tracer.name[i]
        total[name] = total.get(name, 0) + span_ns(i)
        calls[name] = calls.get(name, 0) + 1
    unit_name = "inference.evaluate" if workload == "eval_fusion" else "training.train_step"
    units = calls.get(unit_name, 0) or 1

    def per_unit_ms(name):
        return total.get(name, 0) / 1e6 / units

    def per_unit_calls(name):
        return calls.get(name, 0) / units

    def per_call_ms(name, indices):
        d = [span_ns(i) for i in indices if tracer.name[i] == name]
        return sum(d) / len(d) / 1e6 if d else 0.0

    # route forwards made inside each evaluate call, against the fusion rule
    routes = subs = unused = 0
    evaluate_of: dict[int, int] = {}
    for i in sorted(measured):
        p = tracer.parent[i]
        owner = i if tracer.name[i] == "inference.evaluate" else evaluate_of.get(p, -1)
        evaluate_of[i] = owner
        if owner >= 0 and tracer.name[i] in ("model.forward_main", "model.forward_subpath"):
            routes += 1
            if tracer.name[i] == "model.forward_subpath":
                subs += 1
                unused += tracer.notes.get(owner) == "MainOnly"

    train_runs = [i for i in range(len(tracer.name)) if tracer.name[i] == "bench.train_run"]
    run_ns = sum(tracer.end[i] - tracer.start[i] for i in train_runs)
    eval_in_runs = sum(tracer.end[i] - tracer.start[i] for i in measured
                       if tracer.name[i] == "inference.evaluate"
                       and tracer.name[_root(tracer, i)] == "bench.train_run")
    tapes = tracer.counts.get("tape", 0)

    m = {
        "tensor.backward_ms": per_unit_ms("tensor.backward"),
        "tensor.backward_calls": per_unit_calls("tensor.backward"),
        "tensor.nodes_per_step": sum(tracer.counts.get(op, 0) for op in tracer.counts
                                     if op != "tape") / tapes if tapes else 0.0,
    }
    for op in TAPE_OPS:
        m[f"tensor.nodes.{op}"] = tracer.counts.get(op, 0) / tapes if tapes else 0.0
    for name in ("partitioned_forward", "bn_forward", "on_forward"):
        m[f"normbank.{name}_ms"] = per_unit_ms(f"normbank.{name}")
        m[f"normbank.{name}_calls"] = per_unit_calls(f"normbank.{name}")
    for name in ("forward_main", "forward_aux", "forward_subpath"):
        m[f"model.{name}_ms"] = per_unit_ms(f"model.{name}")
    m["model.forward_subpath_calls"] = per_unit_calls("model.forward_subpath")
    for name in ("save_checkpoint", "load_checkpoint"):
        m[f"model.{name}_ms"] = per_call_ms(f"model.{name}", in_setup)
    for name in ("next_batch", "two_path_loss", "sgd_step"):
        m[f"training.{name}_ms"] = per_unit_ms(f"training.{name}")
    m["training.eval_share"] = eval_in_runs / run_ns if run_ns else 0.0
    m["inference.evaluate_ms"] = per_unit_ms("inference.evaluate")
    m["inference.fuse_ms"] = per_unit_ms("inference.fuse")
    n_eval = calls.get("inference.evaluate", 0)
    m["inference.route_forwards_per_call"] = routes / n_eval if n_eval else 0.0
    m["inference.unused_route_frac"] = unused / subs if subs else 0.0
    m["inference.tgt_acc"] = tgt_acc
    for name in ("generate", "save", "load"):
        m[f"datagen.{name}_ms"] = per_call_ms(f"datagen.{name}", in_setup)
    for name in ("divergence", "perturbation_probe"):
        m[f"diagnostics.{name}_ms"] = per_call_ms(f"diagnostics.{name}", measured)
    m["trace.overhead_frac"] = overhead_frac
    return m


def _root(tracer, i: int) -> int:
    while tracer.parent[i] >= 0:
        i = tracer.parent[i]
    return i


# ---------------------------------------------------------------------------
# driver


UNITS_END_TO_END = {"setup_s": "s", "rows_per_s": "rows/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_share", "_acc")):
        return "fraction"
    return "count"


def new_record() -> dict:
    return {"steps": [], "runs": [], "evals": [], "diags": [], "rows": 0}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    import_normaug()
    from tracer import Tracer
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(scale, seed, workdir)
        wl = (EvalWorkload(bench) if workload == "eval_fusion"
              else TrainWorkload(bench, TRAIN_VARIANT[workload]))
        min_units = 1 if workload == "eval_fusion" else 2
        budget_ns = int(seconds * 1e9)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
            bench.tracer = tracer
        try:
            setups = []
            for _ in range(wl.setup_reps):
                for _ in range(scale.host_per_setup):
                    bench.host.sample()
                setups.append(wl.setup())
        finally:
            if tracer is not None:
                tracer.restore()
                bench.tracer = None

        record = new_record()
        if not trace:
            unit_ns = loop_until(budget_ns, min_units, lambda: wl.unit(record))

            def measure(clock):
                m = wl.end_to_end(record, clock)
                m["setup_s"] = statistics.median(clock(t, ns) for t, ns in setups) / 1e9
                m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                return m
            units = UNITS_END_TO_END
        else:
            # untraced then traced halves; their ratio is the tracing overhead
            unit_ns = loop_until(budget_ns // 2, 1, lambda: wl.unit(record))
            tracer.counts.clear()
            traced_record = new_record()
            tracer.install()
            bench.tracer = tracer
            try:
                unit_ns += loop_until(budget_ns // 2, 1, lambda: wl.unit(traced_record))
            finally:
                tracer.restore()
                bench.tracer = None

            def measure(clock):
                m = wl.end_to_end(traced_record, clock)
                overhead = wl.end_to_end(record, clock)["rows_per_s"] / m["rows_per_s"] - 1.0
                return {"samples": m["samples"],
                        **layer_metrics(tracer, workload, overhead, wl.target_accuracy(), clock)}
            units = None

        raw = measure(raw_ns)
        metrics = measure(bench.host.reference_ns)
        samples = metrics.pop("samples")
        raw.pop("samples")
        units = units or {k: layer_unit(k) for k in metrics}
        checks = bench.checks
        result = {
            "correct": checks.failed == 0 and all(v == v for v in metrics.values()),
            "attempted": max(checks.attempted, 1),
            "failed": checks.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        factors = bench.host.factors()
        info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                "samples": samples, "tgt_acc": wl.target_accuracy(),
                "host": {"kernel_samples": len(factors), "factor_min": float(factors.min()),
                         "factor_median": float(np.median(factors)),
                         "factor_max": float(factors.max())},
                "raw_metrics": raw, "setup_ns": [ns for _, ns in setups], "unit_ns": unit_ns,
                "env": environment(), "check_failures": checks.messages}
        OUT.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
            json.dump({"info": info, "result": result}, f, indent=1)
        if tracer is not None:
            tracer.dump(OUT / f"spans-{stem}.json", {"info": info})
        return {"info": info, "result": result}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="2-epoch schedule and small splits, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  TINY if args.tiny else FULL)
    except ProgramMissing as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
