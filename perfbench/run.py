"""LEWIS service benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload write-mix --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``): ``hot-read``, ``cold-read`` and
``write-mix``, each a closed loop of two keep-alive connections against
a server booted in its own process (``launcher.py``).  ``BENCHMARK.json``
declares ``cold-read`` and ``write-mix``.

``--trace 0`` serves the shipped code and reports the end-to-end
metrics.  It boots the server ``SETUP_BOOTS`` times and reports the
median set-up time; the first boot serves the workload.
``--trace 1`` reports the per-layer metrics: one untraced boot runs the
workload for the throughput baseline, then a boot with the layer spans
of ``spans.py`` runs it again and its spans are split by layer
(``layers.py``).

Every run checks its outputs and the workload's shape; a failed check
makes ``correct`` false.  The last line of stdout is the JSON result;
the full record, stamped with the repository's provenance envelope,
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.util
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_BOOTS = 3
BOOT_TIMEOUT_S = 120
STOP_TIMEOUT_S = 60
#: latency a failed operation counts with: the client's socket timeout,
#: so a failure misses every latency limit and the JSON stays finite
FAILED_LATENCY_MS = 60_000.0

#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("server_rss_mb", "MB"),
)


class Server:
    """One launcher process: booted, timed to readiness, then stopped."""

    def __init__(self, work: Path, tag: str, trace: bool = False):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.store = work / f"store-{tag}"
        self.out = work / f"server-{tag}.json"
        self.log = work / f"server-{tag}.log"
        command = [
            sys.executable, str(HERE / "launcher.py"),
            "--store", str(self.store), "--port", str(self.port), "--out", str(self.out),
        ] + (["--trace"] if trace else [])
        # the shipped configuration: no REPRO_* overrides from the caller
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.spawned = time.monotonic()
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log
            )
        self.stamps: dict = {}
        self.result: dict = {}
        self.ready = self._wait_ready()
        self.setup_s = self.ready - self.spawned

    def _wait_ready(self) -> float:
        """Block until the launcher's ``SETUP`` line, then poll ``/readyz``.

        Waiting on the pipe costs the client no CPU while the server
        builds, so the polling cannot slow the boot it times.
        """
        deadline = self.spawned + BOOT_TIMEOUT_S
        fd, pending = self.proc.stdout.fileno(), b""
        while not self.stamps:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self.stop()
                raise RuntimeError(f"server not ready within {BOOT_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.proc.wait()
                raise RuntimeError(f"server exited during boot:\n{self._log_tail()}")
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                if line.startswith(b"SETUP "):
                    self.stamps = json.loads(line[len(b"SETUP "):])
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return time.monotonic()
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server not ready within {BOOT_TIMEOUT_S} s")

    def _log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-2000:]

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", workloads.PREFIX + "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, read what the launcher wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.out.exists():
            self.result = json.loads(self.out.read_text())
        elif self.proc.returncode:
            raise RuntimeError(f"server failed at shutdown:\n{self._log_tail()}")
        shutil.rmtree(self.store, ignore_errors=True)

    def kill(self) -> None:
        """SIGKILL and wait: for boots that only time their set-up."""
        self.proc.kill()
        self.proc.wait()
        shutil.rmtree(self.store, ignore_errors=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``FAILED_LATENCY_MS`` when there is no value."""
    ordered = sorted(values) or [FAILED_LATENCY_MS]
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_table(records) -> dict[str, dict]:
    """Per op kind: counts, and p50/p90/p99 with the samples beyond each."""
    table = {}
    for kind in sorted({r.op.kind for r in records}) + ["all"]:
        mine = [r for r in records if kind in ("all", r.op.kind)]
        values = [r.latency_s * 1e3 if r.ok else FAILED_LATENCY_MS for r in mine]
        table[kind] = {
            "sent": len(mine),
            "succeeded": sum(r.ok for r in mine),
            "failed": sum(not r.ok for r in mine),
            **{
                f"p{q}_ms": {
                    "value": percentile(values, q / 100),
                    "n": len(values),
                    "beyond": len(values) - math.ceil(q / 100 * len(values)),
                }
                for q in (50, 90, 99)
            },
        }
    return table


def result_envelope() -> dict:
    """``benchmarks/conftest.py::result_envelope()`` plus ``nproc``."""
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {**module.result_envelope(), "nproc": os.cpu_count()}


def run_workload(name: str, seed: int, seconds: float, server: Server) -> dict:
    """Drive one workload against ``server``; read its final state."""
    workload = workloads.make(name, seed)
    stats: dict = {}
    records, window = workloads.drive(
        workload, server.port, seconds, before_window=lambda: stats.update(before=server.stats())
    )
    stats["after"] = server.stats()
    conn = workloads.Connection(server.port)
    try:
        final = workload.final_state(conn)
    finally:
        conn.close()
    answered = sum(r.ok for r in records if r.timed)
    return {
        "workload": workload,
        "records": records,
        "window_s": window,
        "throughput": answered / window if window > 0 else 0.0,
        "stats": stats,
        "final": final,
    }


def verify(runs: list[dict]) -> workloads.Verdict:
    """Shape guards and output checks on every server's run."""
    verdict = workloads.Verdict()
    for run in runs:
        workload = run["workload"]
        workload.shape_guard(run["records"], verdict)
        verdict.require(
            any(r.timed for r in run["records"]), "no operation completed in the window"
        )
        # a fresh reference per run: the write-mix check replays into it
        reference = workloads.Reference(HERE / ".work") if workload.needs_reference else None
        try:
            workload.check(run["records"], run["final"], reference, verdict)
        finally:
            if reference is not None:
                reference.close()
    return verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated benchmark still stops its servers (the finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    report["provenance"] = result_envelope()
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(report, indent=1, default=str))

    print_report(report)
    print(json.dumps(report["result"]))
    return 0


def measure(args, work: Path) -> dict:
    """Boot, drive and stop the servers of one run; compute its metrics.

    ``--trace 0`` runs the window on the first of ``SETUP_BOOTS`` boots;
    the others only time their set-up.  ``--trace 1`` runs the window on
    an untraced server, then on a traced one.
    """
    servers: list[Server] = []
    runs: list[dict] = []
    try:
        for tag, trace in [("baseline", False), ("traced", True)] if args.trace else [("0", False)]:
            server = Server(work, tag, trace=trace)
            servers.append(server)
            runs.append(run_workload(args.workload, args.seed, args.seconds, server))
            server.stop()
        if not args.trace:
            for boot in range(1, SETUP_BOOTS):
                servers.append(Server(work, str(boot)))
                servers[-1].kill()
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.kill()

    verdict = verify(runs)
    run = runs[-1]
    records = [r for r in run["records"] if r.timed]
    window = run["window_s"]
    table = latency_table(records)
    sent = [r for run in runs for r in run["records"]]
    attempted, failed = len(sent), sum(not r.ok for r in sent)
    if args.trace:
        traced = servers[-1]
        metrics = layers.compute(
            records,
            traced.result.get("spans", {}),
            run["stats"]["before"],
            run["stats"]["after"],
            layers.setup_phases(traced.spawned, traced.ready, traced.stamps),
            run["throughput"] / runs[0]["throughput"] if runs[0]["throughput"] else 0.0,
        )
        units = dict(layers.METRICS)
    else:
        # each op kind weighs the same, whatever share of the mix it got
        kinds = [row for kind, row in table.items() if kind != "all"] or [table["all"]]
        metrics = {
            "setup_s": statistics.median(s.setup_s for s in servers),
            "throughput_ops": run["throughput"],
            "p50_ms": statistics.fmean(row["p50_ms"]["value"] for row in kinds),
            "p90_ms": statistics.fmean(row["p90_ms"]["value"] for row in kinds),
            "success_ratio": table["all"]["succeeded"] / max(1, table["all"]["sent"]),
            "server_rss_mb": servers[0].result["maxrss_kb"] / 1024,
        }
        units = dict(END_TO_END)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "window_s": window,
        "setup_s_each": [s.setup_s for s in servers],
        "latency": table,
        "latencies_ms": [
            [r.op.kind, r.conn, round(r.latency_s * 1e3, 3) if r.ok else None]
            for r in records
        ],
        "verdict": {"ok": verdict.ok, "problems": verdict.problems, "notes": verdict.notes},
        "result": {
            "correct": verdict.ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }


def print_report(report: dict) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"window {report['window_s']:.2f} s  nproc {report['provenance']['nproc']}  "
        f"git {report['provenance']['git_sha'][:12]}"
    )
    for kind, row in report["latency"].items():
        tails = "  ".join(
            f"{q} {row[q]['value']:.3f} ms (n={row[q]['n']}, {row[q]['beyond']} beyond)"
            for q in ("p50_ms", "p90_ms", "p99_ms")
        )
        print(
            f"  {kind:9s} sent {row['sent']:5d}  succeeded {row['succeeded']:5d}  "
            f"failed {row['failed']:3d}  {tails}"
        )
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    verdict = report["verdict"]
    for note in verdict["notes"]:
        print(f"  check: {note}")
    for problem in verdict["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  verdict: {'correct' if verdict['ok'] else 'INCORRECT'}")


if __name__ == "__main__":
    sys.exit(main())
