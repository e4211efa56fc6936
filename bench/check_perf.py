"""Validates a bench_load_latency --json dump (BENCH_load_latency.json)
and gates the block-codec decode throughput against a committed baseline.

Two modes:

  python3 check_perf.py <fresh.json>
      Schema check only: the dump has non-empty cells with the
      queries/sec column and a data_plane section with both codec decode
      rates.

  python3 check_perf.py <fresh.json> --baseline <committed.json>
      Schema check plus the regression gate: the fresh block-codec
      decode throughput must be at least (1 - TOLERANCE) of the
      committed baseline's. A missing baseline file SKIPS the gate
      (exit 0 with a notice) so fresh checkouts and new platforms pass
      until a baseline is committed. So does a baseline of another
      build flavour (data_plane.build_flavour: release, debug or
      sanitize-<kind>): an instrumented build decodes several times
      slower than the release build the committed baseline comes from,
      so absolute MB/s only compare within one flavour.

The gate only watches block_decode_mbps: wall-clock latency cells vary
with machine load, but a >20% drop in pure decode throughput on the same
machine is a codec regression, which is exactly what this PR's data
plane must not do. Identical binaries still jitter ~25% run-to-run on a
loaded shared box, so regenerate the committed baseline from the SLOWEST
of several runs — the gate then only fires on real regressions, not on a
noisy sample. The schema check additionally enforces the load-invariant
floor decode_speedup >= MIN_SPEEDUP in every flavour (both codecs are
timed in the same process, so their ratio cancels machine load and
instrumentation alike).
"""
import json
import os
import sys

TOLERANCE = 0.20
MIN_SPEEDUP = 2.0

CELL_KEYS = {
    "arrival_qps", "strategy", "p50_ms", "p99_ms", "max_nic_util",
    "queries_per_sec",
}
DATA_PLANE_KEYS = {
    "codec_default", "block_decode_mbps", "varint_decode_mbps",
    "decode_speedup", "build_flavour",
}


def load(path):
    with open(path) as f:
        dump = json.load(f)
    cells = dump.get("cells")
    if not cells:
        raise SystemExit(f"{path}: no cells")
    for cell in cells:
        missing = CELL_KEYS - set(cell)
        if missing:
            raise SystemExit(f"{path}: cell missing keys {sorted(missing)}")
        if cell["queries_per_sec"] < 0:
            raise SystemExit(f"{path}: negative queries/sec: {cell}")
    plane = dump.get("data_plane")
    if plane is None:
        raise SystemExit(f"{path}: no data_plane section")
    missing = DATA_PLANE_KEYS - set(plane)
    if missing:
        raise SystemExit(f"{path}: data_plane missing {sorted(missing)}")
    if plane["block_decode_mbps"] <= 0:
        raise SystemExit(f"{path}: block_decode_mbps not positive")
    if plane["varint_decode_mbps"] <= 0:
        raise SystemExit(f"{path}: varint_decode_mbps not positive")
    if plane["decode_speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"{path}: block codec only {plane['decode_speedup']:.2f}x varint "
            f"(floor {MIN_SPEEDUP:.1f}x)")
    return dump


def main(argv):
    fresh_path = argv[1]
    baseline_path = None
    if len(argv) > 2:
        if argv[2] != "--baseline" or len(argv) < 4:
            raise SystemExit(
                "usage: check_perf.py <fresh.json> [--baseline <json>]")
        baseline_path = argv[3]

    fresh = load(fresh_path)
    plane = fresh["data_plane"]
    print(f"{len(fresh['cells'])} cells; block {plane['block_decode_mbps']:.0f}"
          f" MB/s, varint {plane['varint_decode_mbps']:.0f} MB/s, "
          f"speedup {plane['decode_speedup']:.2f}x ({plane['build_flavour']} "
          f"build)")

    if baseline_path is None:
        return
    if not os.path.exists(baseline_path):
        print(f"no committed baseline at {baseline_path}; skipping the "
              f"regression gate")
        return
    base_plane = load(baseline_path)["data_plane"]
    if base_plane["build_flavour"] != plane["build_flavour"]:
        print(f"baseline is a {base_plane['build_flavour']} build, this is "
              f"a {plane['build_flavour']} build; skipping the absolute "
              f"decode gate (the speedup floor still holds)")
        return
    base = base_plane["block_decode_mbps"]
    floor = (1.0 - TOLERANCE) * base
    got = plane["block_decode_mbps"]
    if got < floor:
        raise SystemExit(
            f"block decode regressed: {got:.0f} MB/s < {floor:.0f} MB/s "
            f"({(1 - TOLERANCE) * 100:.0f}% of committed {base:.0f} MB/s)")
    print(f"block decode {got:.0f} MB/s clears the committed floor "
          f"{floor:.0f} MB/s")


if __name__ == "__main__":
    main(sys.argv)
