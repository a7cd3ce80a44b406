"""Measured process of the curvlens benchmark; started by run.py, never by hand.

    python3 bench/worker.py <mode> <config.json>

Modes:
  facts     import curvlens.cli, run a GEMM, report versions and BLAS threads
  setup     time ``import curvlens`` plus program-side construction, then exit
  run       set up, then run ops closed loop for the configured seconds
  trace     set up, then alternate untraced and traced ops (per-layer metrics)
  matvec1t  time dense matvecs (run.py starts it with one BLAS thread)

Inputs are loaded from the files run.py generated before the clock starts.
The result is written as JSON to ``<config dir>/result-<mode>.json``.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import Tracer


def os_threads_after_gemm():
    """OS threads of this process once a GEMM has started the BLAS pools.

    The count includes the main thread; numpy's OpenBLAS and scipy's, once
    imported, each keep their own pool.
    """
    a = np.ones((256, 256))
    a @ a
    return len(os.listdir("/proc/self/task"))


class SlqDense:
    """One op: 8 fresh Gaussian probes -> Lanczos + Ritz each -> pooled density -> analysis -> JSON."""

    def __init__(self, config):
        self.size, self.seed = config["size"], config["seed"]
        directory = Path(config["dir"])
        self.h = np.load(directory / "matrix.npy")
        self.planted = np.load(directory / "planted.npy")

    def setup(self):
        self.cl = importlib.import_module("curvlens")
        self.serialize = importlib.import_module("curvlens.serialize")
        self.operator = self.cl.DenseSymmetric(self.h).as_operator()

    def inputs(self, index):
        return inputs.probes(self.seed, index, self.size["probes"], len(self.planted))

    def op(self, probes):
        cl, size = self.cl, self.size
        runs, decompositions = [], []
        for probe in probes:
            tri, basis = cl.lanczos_run(self.operator, size["steps"], probe)
            ritz = cl.ritz_decompose(tri, seed_kind="gaussian")
            decompositions.append(ritz)
            runs.append((ritz.values, ritz.weights, tri.alphas, tri.betas, basis))
        mixture = cl.average_over_seeds(decompositions)
        analysis = {
            "lambda_max": float(mixture.locations[-1]),
            "lambda_b": cl.bulk_mean_random_vector(mixture, size["layers"]).bulk_mean,
            "lambda_b_median": cl.bulk_median_gradient(mixture.locations, size["layers"]).bulk_mean,
            "outliers": cl.count_outliers_gap(mixture.locations, size["gap"]).count,
        }
        document = self.serialize.spectrum_document(
            mixture, {"kind": "planted", "dim": self.operator.dim, "label": self.operator.label},
            {"steps": size["steps"], "seeds": len(probes), "probe_kind": "gaussian"}, analysis)
        text = self.serialize.canonical_json(document)
        return runs, (mixture.locations, mixture.weights), analysis, text

    def corrupt(self, probes, output):
        values = output[0][0][0].copy()
        values[-1] += 0.01 * float(np.max(np.abs(self.planted)))
        output[0][0] = (values, *output[0][0][1:])

    def check(self, probes, output):
        runs, mixture, analysis, text = output
        return checks.check_slq(self.h, self.planted, probes, runs, mixture, analysis, text,
                                self.size)


class TrainMlp:
    """One op: a fresh-init SSGDM ``optim.train`` call, full batch, with GGN refreshes."""

    def __init__(self, config):
        self.size, self.seed = config["size"], config["seed"]
        with np.load(Path(config["dir"]) / "blobs.npz") as data:
            self.x, self.labels = data["inputs"], data["labels"]
        self.sizes = inputs.layer_sizes(self.size)

    def setup(self):
        cl = self.cl = importlib.import_module("curvlens")
        size = self.size
        self.dataset = cl.Dataset(self.x, self.labels, size["n_classes"])
        self.model = cl.MLPModel(self.sizes, weight_decay=size["weight_decay"])
        # set-up pays for one operator build; train() builds its own at each refresh
        cl.curvature_operator(self.model, self.dataset, kind="ggn")
        self.train_config = cl.TrainConfig(
            batch_size=size["n_samples"], total_steps=size["steps"],
            lanczos_steps=size["lanczos_steps"], refresh_interval=size["refresh"],
            curvature="ggn", layers=1, seed_kind="random")

    def inputs(self, index):
        init = inputs.mlp_params(self.seed, index, self.sizes)
        self.model.set_params(init)
        return init, self.cl.SeedStream(inputs.derived_int(self.seed, inputs.STREAM, index))

    def op(self, op_inputs):
        _init, stream = op_inputs
        trace = self.cl.train(self.model, self.dataset, self.train_config, "ssgdm", stream)
        return [trace, self.model.get_params()]

    def corrupt(self, op_inputs, output):
        step, lam_max, lam_b, alpha, beta = output[0].refreshes[0]
        output[0].refreshes[0] = (step, lam_max, lam_b, alpha * (1.0 + 1e-6), beta)

    def check(self, op_inputs, output):
        trace, final = output
        return checks.check_train(trace, op_inputs[0], final, self.x, self.labels,
                                  self.size, self.sizes)


class CliSuite:
    """One op: the six-command cycle, run in-process through ``curvlens.cli.main``."""

    def __init__(self, config):
        self.size, self.seed = config["size"], config["seed"]
        self.directory, self.first_cycle = Path(config["dir"]), config["first_cycle"]

    def setup(self):
        self.cli = importlib.import_module("curvlens.cli")

    def inputs(self, index):
        return inputs.cli_cycle(self.seed, self.size, self.directory, self.first_cycle + index)

    def op(self, cycle):
        return [(name, self.cli.main(argv)) for name, argv, _ in cycle]

    def corrupt(self, cycle, output):
        """Move weight onto the first rmt wigner atom, so the weights no longer sum to 1."""
        path = cycle[0][2] / "spectrum.json"
        document = json.loads(path.read_text())
        document["atoms"][0]["weight"] += 1e-3
        path.write_text(json.dumps(document))

    def check(self, cycle, output):
        failures, done = checks.Failures(), {}
        for (name, code), (_, _, out) in zip(output, cycle):
            failures.require(code == 0, f"{name} exited {code}")
            if code == 0:
                failures += checks.check_cli(name, out, self.size, done)
            done[name] = out
        return failures


WORKLOADS = {"slq_dense": SlqDense, "train_mlp": TrainMlp, "cli_suite": CliSuite}


class Loop:
    """Runs ops, checking each; a raise or a failed check makes the op failed."""

    def __init__(self, workload, corrupt):
        self.workload, self.corrupt = workload, corrupt
        self.attempted, self.failed, self.failures = 0, 0, []

    def one(self):
        """Run the next op; return its wall seconds (program calls only), None if it raised."""
        workload, index = self.workload, self.attempted
        self.attempted += 1
        try:
            op_inputs = workload.inputs(index)
            start = time.perf_counter()
            output = workload.op(op_inputs)
            elapsed = time.perf_counter() - start
            if self.corrupt:
                workload.corrupt(op_inputs, output)
            problems = workload.check(op_inputs, output)
        except Exception:
            elapsed, problems = None, [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.failures.extend(f"op {index}: {p}" for p in problems[:3])
        return elapsed

    def result(self):
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures[:20]}


def peak_rss_mb():
    """This process's own peak RSS (VmHWM).

    ``ru_maxrss`` would also count the parent's resident set at exec time.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def per_op(flat, n_ops):
    metrics = {key: value / n_ops for key, value in flat.items()}
    dense_s = flat.get("operators.matvec.dense_self_s", 0.0)
    metrics["operators.matvec.gbps_computed"] = (
        flat["operators.matvec.dense_bytes"] / dense_s / 1e9 if dense_s else 0.0)
    return metrics


def main():
    mode, config_path = sys.argv[1], Path(sys.argv[2])
    config = json.loads(config_path.read_text())
    result_path = config_path.parent / f"result-{mode}.json"
    seconds = config["seconds"]

    if mode == "facts":
        started = time.perf_counter()
        cli = importlib.import_module("curvlens.cli")
        import scipy

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result = {"curvlens_import_s": time.perf_counter() - started,
                  "curvlens_file": cli.__file__, "python": sys.version.split()[0],
                  "numpy": np.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas['name']} {blas['version']}",
                  "os_threads_after_gemm": os_threads_after_gemm()}
        result_path.write_text(json.dumps(result))
        return

    workload = WORKLOADS[config["workload"]](config)
    started = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - started
    if mode == "setup":
        result_path.write_text(json.dumps({"setup_s": setup_s}))
        return

    if mode == "matvec1t":
        vector = np.ones(workload.operator.dim)
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < 5 or time.perf_counter() < deadline:
            start = time.perf_counter()
            workload.operator.matvec(vector)
            times.append(time.perf_counter() - start)
        result_path.write_text(json.dumps({"matvec_s": statistics.median(times),
                                           "dim": workload.operator.dim, "samples": len(times)}))
        return

    loop = Loop(workload, config["corrupt"])
    result = {"setup_s": setup_s, "os_threads_after_gemm": os_threads_after_gemm()}
    started = time.perf_counter()
    if mode == "run":
        latencies = []
        while not latencies or time.perf_counter() - started < seconds:
            elapsed = loop.one()
            if elapsed is None:
                break
            latencies.append(elapsed)
        result["latencies"] = latencies
    elif mode == "trace":
        tracer = Tracer()
        plain, traced = [], []
        while not traced or time.perf_counter() - started < seconds:
            plain.append(loop.one())
            tracer.install()
            try:
                traced.append(loop.one())
            finally:
                tracer.uninstall()
            if None in plain or None in traced:
                break
        tracer.dump(config["spans_path"])
        result["per_layer"] = per_op(tracer.totals(), len(traced))
        if None not in plain and None not in traced:
            result["per_layer"]["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced) / statistics.median(plain) - 1.0)
        result["plain_s"], result["traced_s"] = plain, traced
    result.update(loop.result(), peak_rss_mb=peak_rss_mb())
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
