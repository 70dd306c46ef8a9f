"""One phase of one workload, run in its own process by run.py:

    python3 perfbench/phase.py RUN_DIR WORKLOAD ROUTE SEED SECONDS TRACE

Writes RUN_DIR/ROUTE.json (timings, set-up, peak RSS, spans) and, for
inference routes, RUN_DIR/ROUTE.npz (the logits of each pool batch) for
run.py's exactness gate. With TRACE=1 every second operation runs
traced; the difference of the traced and untraced medians is the
tracing overhead.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, imports included

import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bitcontext  # noqa: E402
from bitcontext import costmodel as cm  # noqa: E402
from bitcontext import network as nw  # noqa: E402
from bitcontext import train as tr  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

CHECKPOINT = "model.ckpt"
SAVE_ROUNDS = 3


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as f:
        libs = {ln.split()[-1] for ln in f if "openblas" in ln and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Phase:
    def __init__(self, run_dir, w, route, seed, seconds, trace):
        self.run_dir, self.w, self.route = run_dir, w, route
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.spec = w.spec()
        self.rows = [r.name for r in cm.count_network(self.spec).rows]
        self.tracer = tracing.Tracer()
        self.out = {"route": route, "failures": []}

    def build(self):
        t = time.perf_counter()
        if self.w.two_step and self.route != "train":
            net = nw.load(self.run_dir / CHECKPOINT)  # the trained model
            key = "ckpt_load_ms"
        else:
            net = nw.build(self.spec, seed=self.seed)
            key = "build_ms"
        self.out[key] = 1e3 * (time.perf_counter() - t)
        return net

    def fail(self, what):
        self.out["failures"].append(f"{what}: {traceback.format_exc(limit=3)}")

    def set_traced(self, net, i):
        """With tracing on, odd operations run traced and even ones not, so
        drift over the run does not bias the overhead estimate."""
        on = self.trace and i % 2 == 1
        if on and not self.tracer.installed:
            self.tracer.install(bitcontext, net, self.rows)
        elif not on:
            self.tracer.uninstall()
        return on

    # -- inference --------------------------------------------------------

    def inference(self):
        net = self.build()
        batch = self.w.phase(self.route).batch
        pool = wl.inference_pool(self.w, self.spec, self.seed, batch)
        if self.route == "packed":
            def run(x):
                return net.forward_packed(x)
        else:
            def run(x):
                return net.forward(x, training=False).data
        run(pool[0])  # warm-up
        self.out["setup_s"] = time.perf_counter() - T0

        n = self.w.op_count(self.route, self.seconds)
        first, times, ok, traced = {}, [], [], []
        for i in range(n):
            traced.append(self.set_traced(net, i))
            self.tracer.batch = i
            j = i % len(pool)
            t = time.perf_counter()
            try:
                y = run(pool[j])
            except Exception:
                y = None
                self.fail(f"batch {i}")
            times.append(1e3 * (time.perf_counter() - t))
            good = y is not None and bool(np.isfinite(y).all())
            if good and j in first:
                good = np.array_equal(y, first[j])  # repeat of a pool batch
            elif good:
                first[j] = y
            ok.append(good)
        self.tracer.uninstall()
        if self.trace:
            tracemalloc.start()
            run(pool[0])
            # Python objects in a batch vary by a few hundred bytes between
            # processes; at 0.1 MB the numpy buffers' peak repeats exactly.
            self.out["peak_alloc_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
            tracemalloc.stop()
        np.savez(self.run_dir / f"{self.route}.npz",
                 **{f"b{j}": y for j, y in first.items()})
        self.out.update(times_ms=times, ok=ok, traced=traced, batch=batch,
                        pool=len(pool))

    # -- training ---------------------------------------------------------

    def training(self):
        net = self.build()
        data = wl.train_set(self.w, self.spec, self.seed)
        cfgs = wl.train_configs(self.w, self.seed, self.seconds)
        state = {k: v.copy() for k, v in net.state_arrays().items()}
        tr.train_step(net, data, dataclasses.replace(cfgs[0], iterations=1))
        net.load_state_arrays(state)  # warm-up leaves no trace in the weights
        self.out["setup_s"] = time.perf_counter() - T0

        times, ok, traced, losses = [], [], [], []
        original = tr.augment_batch
        traced_augment = self.tracer.wrap(original, "data.augment_batch")
        init = None
        for cfg in cfgs:
            stamps = []

            def clock(*args, _stamps=stamps, **kwargs):
                # timestamp-only hook at the start of each iteration
                _stamps.append(time.perf_counter())
                k = len(_stamps) - 1
                on = self.set_traced(net, k)
                self.tracer.batch = len(times) + k
                return (traced_augment if on else original)(*args, **kwargs)

            tr.augment_batch = clock
            try:
                if cfg.step == 1:
                    init, res = tr.train_step1(net, data, cfg)
                else:
                    _, res = tr.train_step2(net, init, data, cfg)
                hist = res.loss_history
            except Exception:
                hist = []
                self.fail(f"train step {cfg.step}")
            finally:
                stamps.append(time.perf_counter())
                self.tracer.uninstall()
                tr.augment_batch = original
            durations = np.diff(stamps)
            times += [1e3 * d for d in durations[:len(hist)]]
            ok += [bool(np.isfinite(v)) for v in hist]
            ok += [False] * (cfg.iterations - len(hist))
            traced += [bool(self.trace and k % 2) for k in range(len(hist))]
            losses += hist
        self.out.update(times_ms=times, ok=ok, traced=traced,
                        batch=cfgs[0].batch_size,
                        final_loss=losses[-1] if losses else None)
        if self.w.two_step:
            self.persistence(net)

    def persistence(self, net):
        """Save/load round trips; the reload must give identical logits."""
        path = self.run_dir / CHECKPOINT
        probe = wl.inference_pool(self.w, self.spec, self.seed, 64)[0]
        ref = net.forward(probe, training=False).data
        save_ms, load_ms, ok = [], [], []
        for r in range(SAVE_ROUNDS):
            try:
                t = time.perf_counter()
                nw.save(net, path)
                t1 = time.perf_counter()
                again = nw.load(path)
                t2 = time.perf_counter()
                save_ms.append(1e3 * (t1 - t))
                load_ms.append(1e3 * (t2 - t1))
                ok.append(np.array_equal(again.forward(probe, training=False).data, ref))
            except Exception:
                ok.append(False)
                self.fail(f"save/load round {r}")
        self.out.update(save_ms=save_ms, load_ms=load_ms, save_ok=ok,
                        save_bytes=path.stat().st_size if path.exists() else 0)

    def run(self):
        if self.route == "train":
            self.training()
        else:
            self.inference()
        report = cm.count_network(self.spec)
        self.out.update(
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            blas_threads=blas_threads(), numpy=np.__version__,
            rows=self.rows, bops=report.bops, flops=report.flops,
            row_work=[[r.bops, r.flops] for r in report.rows],
            spans=self.tracer.spans)
        with open(self.run_dir / f"{self.route}.json", "w") as f:
            json.dump(self.out, f)


def main(argv):
    run_dir, name, route, seed, seconds, trace = argv
    Phase(Path(run_dir), wl.WORKLOADS[name], route, int(seed), int(seconds),
          trace == "1").run()


if __name__ == "__main__":
    main(sys.argv[1:])
