"""curvlens benchmark: run one workload from a seed, check its outputs, print its metrics.

    python3 bench/run.py --workload slq_dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports curvlens from ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a traced run.  The last line of standard output
is the result object; the line before it holds the machine facts, the BLAS
threads in effect and the raw samples.  ``--smoke`` runs tiny sizes and
``--corrupt`` perturbs one output per op; both serve the benchmark's own
tests (``python3 -m pytest bench/selftest.py``).

The benchmark process itself never imports curvlens.  It draws the inputs
into ``.bench_work/`` and measures child processes: workers for the library
workloads and one interpreter per command for ``cli_suite``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads BLAS, here and in every child
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import worker  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = {"full": 7, "smoke": 2}


class ChildFailed(RuntimeError):
    pass


def run_child(argv, root, env, log):
    """Run one process to completion; return (exit code, wall seconds, its own peak RSS in MB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Run:
    def __init__(self, args, root):
        self.args, self.root = args, root
        self.scale = "smoke" if args.smoke else "full"
        self.size = inputs.SIZES[self.scale][args.workload]
        self.dir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.log = self.dir / "stderr.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.config = {"workload": args.workload, "seed": args.seed, "size": self.size,
                       "dir": str(self.dir), "seconds": args.seconds, "corrupt": args.corrupt,
                       "first_cycle": 0,
                       "spans_path": str(root / ".bench_work"
                                         / f"spans-{args.workload}-seed{args.seed}.json")}

    def worker(self, mode, seconds=None, env=None, **overrides):
        """Run bench/worker.py in ``mode`` and return its result."""
        config = dict(self.config, **overrides)
        if seconds is not None:
            config["seconds"] = seconds
        path = self.dir / f"config-{mode}.json"
        path.write_text(json.dumps(config))
        code, _, _ = run_child([sys.executable, str(BENCH_DIR / "worker.py"), mode, str(path)],
                               self.root, env or self.env, self.log)
        if code != 0:
            raise ChildFailed(f"worker {mode} exited {code}:\n{self.log.read_text()[-3000:]}")
        return json.loads((self.dir / f"result-{mode}.json").read_text())

    def make_inputs(self):
        workload, seed, size = self.args.workload, self.args.seed, self.size
        if workload == "slq_dense":
            matrix, planted = inputs.planted_matrix(seed, size["groups"])
            np.save(self.dir / "matrix.npy", matrix)
            np.save(self.dir / "planted.npy", planted)
        elif workload == "train_mlp":
            x, labels = inputs.blobs(seed, size["n_samples"], size["d_in"], size["n_classes"],
                                     size["separation"])
            np.savez(self.dir / "blobs.npz", inputs=x, labels=labels)
        else:
            inputs.write_cli_inputs(seed, size, self.dir)

    def setup_samples(self):
        """Set-up time, measured several times, each in a fresh process."""
        samples = []
        for _ in range(SETUP_REPEATS[self.scale]):
            if self.args.workload == "cli_suite":
                argv = [sys.executable, "-c", "import curvlens.cli"]
                code, wall, _ = run_child(argv, self.root, self.env, self.log)
                if code != 0:
                    raise ChildFailed(f"import curvlens.cli exited {code}")
                samples.append(wall)
            else:
                samples.append(self.worker("setup")["setup_s"])
        return samples

    def cli_cycles(self, seconds):
        """Closed loop of whole cycles, one interpreter per command, for ``seconds``."""
        cli = CliSubprocesses(self)
        loop = worker.Loop(cli, self.args.corrupt)
        latencies = []
        started = time.perf_counter()
        while not latencies or time.perf_counter() - started < seconds:
            latencies.append(loop.one())
            if latencies[-1] is None:
                raise ChildFailed("a cli_suite cycle could not run:\n" + "\n".join(loop.failures))
        return latencies, loop, cli

    def measure(self):
        """End-to-end metrics from an untraced run."""
        samples = {"setup_s": self.setup_samples()}
        if self.args.workload == "cli_suite":
            latencies, loop, cli = self.cli_cycles(self.args.seconds)
            counts = loop.result()
            peak = max(cli.peak_mb.values())
            samples["cli_wall_s"] = cli.walls
            samples["cli_peak_rss_mb"] = cli.peak_mb
            # a child's ru_maxrss starts at this process's resident set at exec
            samples["bench_peak_rss_mb"] = worker.peak_rss_mb()
        else:
            result = self.worker("run")
            latencies, peak = result["latencies"], result["peak_rss_mb"]
            counts = {k: result[k] for k in ("attempted", "failed", "failures")}
            if not latencies:
                raise ChildFailed("no op completed:\n" + "\n".join(counts["failures"]))
        samples["latency_s"] = latencies
        metrics = {"setup_s": statistics.median(samples["setup_s"]),
                   "ops_per_s": len(latencies) / sum(latencies),
                   "op_p50_ms": 1000.0 * statistics.median(latencies),
                   "peak_rss_mb": peak}
        return metrics, counts, samples

    def trace(self):
        """Per-layer metrics from a traced run; for cli_suite also the untraced per-command walls."""
        metrics, samples = {}, {}
        counts = {"attempted": 0, "failed": 0, "failures": []}
        if self.args.workload == "cli_suite":
            _, loop, cli = self.cli_cycles(self.args.seconds / 2)
            metrics = {f"cli.{name}.wall_s": statistics.median(w) for name, w in cli.walls.items()}
            samples["cli_wall_s"] = cli.walls
            counts = loop.result()
        result = self.worker("trace", seconds=self.args.seconds / 2,
                             first_cycle=counts["attempted"])
        metrics.update(result["per_layer"])
        if self.args.workload == "slq_dense":
            one_thread = dict(self.env, **{var: "1" for var in BLAS_VARS})
            matvec = self.worker("matvec1t", seconds=1.0, env=one_thread)
            metrics["operators.matvec.gbps_computed_1t"] = \
                8.0 * matvec["dim"] ** 2 / matvec["matvec_s"] / 1e9
            samples["matvec_1t"] = matvec
        for key in counts:
            counts[key] += result[key]
        metrics["error_rate"] = counts["failed"] / counts["attempted"]
        samples.update(plain_s=result["plain_s"], traced_s=result["traced_s"])
        return metrics, counts, samples

    def machine(self):
        facts = self.worker("facts")
        facts.update(nproc=NPROC, blas_threads_pinned=NPROC, cpu_model=_cpu_model(), llc=_llc())
        return facts


class CliSubprocesses(worker.CliSuite):
    """cli_suite as users run it: each command in a fresh interpreter, peak RSS per child."""

    def __init__(self, run):
        super().__init__(run.config)
        self.run = run
        self.walls = defaultdict(list)
        self.peak_mb = defaultdict(float)

    def op(self, cycle):
        codes = []
        for name, argv, _ in cycle:
            code, wall, rss = run_child([sys.executable, "-m", "curvlens.cli", *argv],
                                        self.run.root, self.run.env, self.run.log)
            self.walls[name].append(wall)
            self.peak_mb[name] = max(self.peak_mb[name], rss)
            codes.append((name, code))
        return codes


def _cpu_model():
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def _llc():
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(int((c / "level").read_text()), (c / "size").read_text().strip()) for c in caches]
    return f"L{max(levels)[0]} {max(levels)[1]}" if levels else "unknown"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one output per op, to show the checks catch it")
    return parser.parse_args()


def main():
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "curvlens" / "__init__.py").is_file():
        sys.exit("bench: no src/curvlens here; run from the root of a curvlens checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    run = Run(args, root)
    try:
        run.make_inputs()
        machine = run.machine()
        if not machine["curvlens_file"].startswith(str(root / "src")):
            raise ChildFailed(f"curvlens imported from {machine['curvlens_file']}, not src/")
        metrics, counts, samples = run.trace() if args.trace else run.measure()
    except ChildFailed as exc:
        sys.exit(f"bench: {exc}")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": run.scale, "machine": machine,
              "failures": counts["failures"], "samples": samples}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        # a layer the workload never calls reads 0
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
