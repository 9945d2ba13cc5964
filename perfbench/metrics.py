"""Metric math of the SGFS benchmark: pure functions over the records the
perfbench driver prints.  Kept apart from run.py so test_metrics.py can pin
the rules without building anything."""

import math
import statistics

# Tail percentiles considered, highest first; one is reported only when at
# least MIN_BEYOND samples lie beyond it.
TAILS = (("p999", 0.999), ("p99", 0.99))
MIN_BEYOND = 10


# Seconds the driver's fixed reference work takes at the reference host
# speed (about its duration on the 4-core 2.1 GHz Xeon VM that took the
# committed baseline).  Every wall figure is reported at this speed.
REF_NOMINAL_S = 0.1


def median(values):
    return statistics.median(values)


def has_tail(samples, q):
    """True when at least MIN_BEYOND of `samples` lie beyond quantile q."""
    return samples * (1.0 - q) >= MIN_BEYOND - 1e-9


def percentile(sorted_ok, failed, q):
    """Nearest-rank q-quantile of op latencies.  Failed ops count as slower
    than any limit (+inf), so a failure rate above 1 - q makes the quantile
    infinite.  Returns None when there is nothing to rank."""
    n = len(sorted_ok) + failed
    if n == 0:
        return None
    rank = min(n, max(1, math.ceil(q * n)))
    return sorted_ok[rank - 1] if rank <= len(sorted_ok) else math.inf


def ratio(num, base):
    """(num / base, base); 0 when the base is 0, so the base always travels
    with the ratio and an empty base reads as 'nothing happened'."""
    return (num / base if base else 0.0), base


def other_wall(wall_s, estimates):
    """Wall seconds not explained by the per-layer estimates, never below 0:
    estimates that overshoot the measured wall leave nothing unexplained."""
    return max(0.0, wall_s - sum(estimates))


def deterministic_mismatches(records, ignore_prefixes=()):
    """Names of deterministic fields that differ between any record and the
    first one.  `records` are driver iteration records; keys starting with
    one of `ignore_prefixes` are skipped (the traced/untraced split)."""
    if not records:
        return []
    first = records[0]
    bad = set()
    for rec in records[1:]:
        if rec["lat_digest"] != first["lat_digest"]:
            bad.add("latencies")
        keys = set(rec["det"]) | set(first["det"])
        for k in keys:
            if k.startswith(tuple(ignore_prefixes)):
                continue
            if rec["det"].get(k) != first["det"].get(k):
                bad.add(k)
    return sorted(bad)


def at_reference_speed(rec, ref_s):
    """Copy of a driver record with every host-seconds reading scaled from
    the host's speed at the time (the reference work took `ref_s`) to the
    reference speed (it takes REF_NOMINAL_S).  Host contention on a shared
    machine slows a whole run by up to half again for tens of seconds; the
    reference slows with it, so the ratio holds still.  peak_rss_mb and the
    reference itself are not times and stay as read."""
    factor = REF_NOMINAL_S / ref_s
    out = dict(rec)
    out["wall"] = {k: (v if k in ("peak_rss_mb", "host.ref_s") else v * factor)
                   for k, v in rec["wall"].items()}
    return out


def measured_wall(timed):
    """Median wall seconds of the measured phase over the timed repetitions."""
    return median([r["wall"]["wall_s"] for r in timed])


def setup_wall(timed, piece=None):
    """Median set-up wall seconds (all pieces, or one) over the timed
    repetitions."""
    pieces = (piece,) if piece else ("setup.testbed_s", "setup.preload_s",
                                     "setup.mount_s")
    return median([sum(r["wall"][p] for p in pieces) for r in timed])


def end_to_end(untimed, timed, lat_ns):
    """Every end-to-end metric that applies, from untraced records.

    `untimed` is the warm-up record (checked, not timed), `timed` the rest;
    `lat_ns` the sorted successful-op latencies of one repetition.  Returns
    {name: (value, unit, note)}; metrics that do not apply are absent."""
    d = untimed["det"]
    ok = d["ops.attempted"] - d["ops.failed"]
    out = {}

    wall = measured_wall(timed)
    out["wall_s"] = (wall, "s", "")
    out["setup_s"] = (setup_wall(timed), "s", "")
    if d.get("app.read_bytes", 0) > 0:
        out["read_mb_per_wall_s"] = (d["app.read_bytes"] / 1e6 / wall,
                                     "MB/s", "")
    if d.get("app.write_bytes", 0) > 0:
        out["write_mb_per_wall_s"] = (d["app.write_bytes"] / 1e6 / wall,
                                      "MB/s", "")
    out["ops_per_wall_s"] = (ok / wall, "ops/s", "")
    # Peak after the first repetition: later ones reuse the same heap, and
    # how far fragmentation creeps over a run depends on its length.
    out["peak_rss_mb"] = (untimed["wall"]["peak_rss_mb"], "MB", "")
    if d.get("app.read_bytes", 0) > 0 and d.get("sim.read_s", 0) > 0:
        out["sim_read_mb_per_s"] = (d["app.read_bytes"] / 1e6 /
                                    d["sim.read_s"], "MB/s", "")
    if d.get("app.write_bytes", 0) > 0 and d.get("sim.write_s", 0) > 0:
        out["sim_write_mb_per_s"] = (d["app.write_bytes"] / 1e6 /
                                     d["sim.write_s"], "MB/s", "")
    if lat_ns is not None:
        n = len(lat_ns) + int(d["ops.failed"])
        note = "n=%d" % n
        p50 = percentile(lat_ns, int(d["ops.failed"]), 0.5)
        if p50 is not None:
            out["sim_op_p50_ms"] = (p50 / 1e6, "ms", note)
        for name, q in TAILS:
            if has_tail(n, q):
                v = percentile(lat_ns, int(d["ops.failed"]), q)
                out["sim_op_%s_ms" % name] = (v / 1e6, "ms", note)
    out["sim_goodput_ops_per_s"] = (ok / d["sim.window_s"], "ops/s", "")
    if "sim.recovery_s" in d:
        out["sim_recovery_s"] = (d["sim.recovery_s"], "s", "")
    out["op_fail_ratio"] = (ratio(d["ops.failed"], d["ops.attempted"])[0],
                            "ratio", "base %d ops" % d["ops.attempted"])
    return out


# Per-layer metrics of the traced run: (name, unit, better, what it should
# move).  "moves" names the end-to-end metric and workload a change to the
# layer is predicted to move; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("sim.events", "count", "lower",
     "ops_per_wall_s, wall_s on fleet-small-ops; flat on bulk-aes-lan"),
    ("sim.events_per_op", "events/op", "lower",
     "ops_per_wall_s on fleet-small-ops"),
    ("sim.events_per_wall_s", "events/s", "higher",
     "ops_per_wall_s, wall_s on fleet-small-ops"),
    ("sim.actors_spawned", "count", "lower", "wall_s on fleet-small-ops"),
    ("sim.engine_wall_est_s", "s", "lower",
     "wall_s on fleet-small-ops; flat on bulk-aes-lan"),
    ("net.wire_bytes", "bytes", "lower",
     "sim_read_mb_per_s on bulk-aes-lan; sim_op_p50_ms on smallfile-wan-cache"),
    ("net.wire_bytes_per_payload_byte", "B/B", "lower",
     "sim_read_mb_per_s on bulk-aes-lan"),
    ("app.payload_bytes", "bytes", "higher",
     "base of the *_per_payload_byte ratios"),
    ("rpc.client.calls", "count", "lower",
     "sim_op_p50_ms on smallfile-wan-cache"),
    ("rpc.calls_per_op", "calls/op", "lower",
     "sim_op_p50_ms on smallfile-wan-cache"),
    ("rpc.client.call_p99_ms", "ms", "lower",
     "sim_op_p99_ms on smallfile-wan-cache"),
    ("rpc.client.retransmits", "count", "lower",
     "sim_recovery_s, op_fail_ratio on reconnect-storm"),
    ("rpc.client.giveups", "count", "lower", "op_fail_ratio on reconnect-storm"),
    ("rpc.server.queue_wait_s", "s", "lower",
     "sim_op_p99_ms on smallfile-wan-cache"),
    ("rpc.server.shed", "count", "lower",
     "sim_recovery_s, op_fail_ratio on reconnect-storm"),
    ("rpc.server.jukebox_replies", "count", "lower",
     "op_fail_ratio on reconnect-storm"),
    ("crypto.bytes_processed", "bytes", "lower",
     "read_mb_per_wall_s, write_mb_per_wall_s on bulk-aes-lan"),
    ("crypto.records", "count", "lower",
     "read_mb_per_wall_s on bulk-aes-lan"),
    ("crypto.charge_s", "s", "lower", "sim_read_mb_per_s on bulk-aes-lan"),
    ("crypto.mac_failures", "count", "lower", "must stay 0 everywhere"),
    ("crypto.sym_wall_est_s", "s", "lower",
     "read_mb_per_wall_s, write_mb_per_wall_s on bulk-aes-lan; "
     "flat on fleet-small-ops"),
    ("crypto.rsa_wall_est_s", "s", "lower", "wall_s on reconnect-storm"),
    ("nfs.client.rpc.calls", "count", "lower",
     "sim_op_p50_ms on smallfile-wan-cache"),
    ("nfs.client.page_cache.hit_ratio", "ratio", "higher",
     "sim_read_mb_per_s on bulk-aes-lan"),
    ("nfs.client.attr_cache.hit_ratio", "ratio", "higher",
     "sim_op_p50_ms on smallfile-wan-cache"),
    ("nfs.client.cto.flushes", "count", "lower",
     "sim_op_p50_ms on smallfile-wan-cache"),
    ("nfs.client.readahead", "count", "higher",
     "sim_read_mb_per_s on bulk-aes-lan"),
    ("sgfs.client_proxy.forwarded", "count", "lower",
     "sim_op_p50_ms on smallfile-wan-cache"),
    ("sgfs.client_proxy.absorbed", "count", "higher",
     "base of sgfs.client_proxy.absorb_ratio"),
    ("sgfs.client_proxy.absorb_ratio", "ratio", "higher",
     "sim_op_p50_ms, sim_write_mb_per_s on smallfile-wan-cache"),
    ("sgfs.client_proxy.flushed_bytes", "bytes", "lower",
     "sim_write_mb_per_s on smallfile-wan-cache"),
    ("sgfs.flush_s", "s", "lower", "sim_write_mb_per_s on smallfile-wan-cache"),
    ("sgfs.server_proxy.forwarded", "count", "lower",
     "sim_op_p99_ms on reconnect-storm"),
    ("sgfs.server_proxy.fq_wait_s", "s", "lower",
     "sim_op_p99_ms on reconnect-storm"),
    ("sgfs.session.full_handshakes", "count", "lower",
     "sim_recovery_s, wall_s on reconnect-storm"),
    ("sgfs.session.resumed", "count", "higher",
     "sim_recovery_s on reconnect-storm"),
    ("sgfs.session.fallback_full", "count", "lower",
     "sim_recovery_s on reconnect-storm"),
    ("services.fss.sso_signatures", "count", "lower",
     "wall_s on reconnect-storm"),
    ("services.fss.sso_cache_hits", "count", "higher",
     "wall_s on reconnect-storm"),
    ("fleet.discovery_fetches", "count", "lower", "wall_s on fleet-small-ops"),
    ("fleet.establishes", "count", "lower",
     "wall_s on fleet-small-ops and reconnect-storm"),
    ("resource.client.cpu.busy_s", "s", "lower",
     "sim_op_p99_ms on smallfile-wan-cache"),
    ("resource.server.cpu.busy_s", "s", "lower",
     "sim_op_p99_ms on smallfile-wan-cache"),
    ("resource.client.cpu.wait_s", "s", "lower",
     "sim_op_p99_ms on smallfile-wan-cache"),
    ("resource.server.cpu.wait_s", "s", "lower",
     "sim_op_p99_ms on smallfile-wan-cache"),
    ("resource.client.disk.busy_s", "s", "lower",
     "sim_op_p99_ms on smallfile-wan-cache"),
    ("resource.server.disk.busy_s", "s", "lower",
     "sim_read_mb_per_s on bulk-aes-lan"),
    ("buf.bytes_copied_per_payload_byte", "B/B", "lower",
     "read_mb_per_wall_s on bulk-aes-lan; ops_per_wall_s on "
     "smallfile-wan-cache"),
    ("buf.segments_allocated", "count", "lower",
     "ops_per_wall_s on smallfile-wan-cache"),
    ("setup.testbed_s", "s", "lower", "setup_s on every workload"),
    ("setup.preload_s", "s", "lower", "setup_s on bulk-aes-lan"),
    ("setup.mount_s", "s", "lower", "setup_s on every workload"),
    ("wall.other_s", "s", "lower", "wall_s on every workload"),
    ("trace.spans", "count", "lower", "trace.overhead_s"),
    ("trace.overhead_s", "s", "lower", "none: cost of tracing itself"),
)

# The per-layer wall estimates that wall.other_s leaves out.
ESTIMATE_NAMES = ("sim.engine_wall_est_s", "crypto.sym_wall_est_s",
                  "crypto.rsa_wall_est_s")


def per_layer(d, cal, walls):
    """Per-layer values from one traced record's deterministic fields `d`,
    the driver's unit costs `cal` (ns per call) and the median walls
    `walls` (wall_s of the untraced repetitions, which the counts cover;
    traced_s; the set-up pieces).  Returns {name: value or None};
    None means the layer is not visible from outside on this workload."""
    # Registry counters register on first use, so an absent counter is 0.
    # Histograms and host resources are readable only where the driver holds
    # the Testbed (run_fleet/run_connstorm return counters only), and
    # harness-only fields exist only for those two workloads.
    visible = "host.client.cpu.busy_ns" in d

    def get(key):
        return d.get(key, 0)

    def harness(key):
        return d.get(key)

    def total(*keys):
        return sum(d.get(k, 0) for k in keys)

    def div(num, base):  # a ratio over an empty base does not apply
        if num is None or not base:
            return None
        return ratio(num, base)[0]

    def scaled(key, factor):
        return d.get(key, 0) * factor if visible else None

    ops = d["ops.attempted"]
    # Application payload is known only where the driver issues the I/O.
    payload = (total("app.read_bytes", "app.write_bytes")
               if "app.read_bytes" in d else None)
    # Bytes on the wire are visible through the secure channel's counters
    # (record bytes plus the 4-byte length prefix); plain-transport hops
    # expose none.
    records_sent = get("crypto.records_sent")
    wire = (d.get("crypto.bytes_sent", 0) + 4 * records_sent
            if records_sent else None)
    absorbed = total(*[k for k in d
                       if k.startswith("sgfs.client_proxy.absorbed.")])
    forwarded = get("sgfs.client_proxy.forwarded")

    out = {
        "sim.events": get("sim.events"),
        "sim.events_per_op": div(get("sim.events"), ops),
        "sim.events_per_wall_s": div(get("sim.events"), walls["wall_s"]),
        "sim.actors_spawned": get("sim.actors_spawned"),
        "net.wire_bytes": wire,
        "net.wire_bytes_per_payload_byte": div(wire, payload),
        "app.payload_bytes": payload,
        "rpc.client.calls": get("rpc.client.calls"),
        "rpc.calls_per_op": div(get("rpc.client.calls"), ops),
        "rpc.client.call_p99_ms": scaled("rpc.client.call_ns.p99", 1e-6),
        "rpc.client.retransmits": get("rpc.client.retransmits"),
        "rpc.client.giveups": get("rpc.client.giveups"),
        "rpc.server.queue_wait_s": scaled("rpc.server.queue_wait_ns.sum",
                                          1e-9),
        "rpc.server.shed": get("rpc.server.shed"),
        "rpc.server.jukebox_replies": get("rpc.server.jukebox_replies"),
        "crypto.bytes_processed": get("crypto.bytes_processed"),
        "crypto.records": total("crypto.records_sent", "crypto.records_recv"),
        "crypto.charge_s": scaled("crypto.record_cost_ns.sum", 1e-9),
        "crypto.mac_failures": get("crypto.mac_failures"),
        "nfs.client.rpc.calls": get("nfs.client.rpc.calls"),
        "nfs.client.page_cache.hit_ratio": div(
            get("nfs.client.page_cache.hits"),
            total("nfs.client.page_cache.hits",
                  "nfs.client.page_cache.misses")),
        "nfs.client.attr_cache.hit_ratio": div(
            get("nfs.client.attr_cache.hits"),
            total("nfs.client.attr_cache.hits",
                  "nfs.client.attr_cache.misses")),
        "nfs.client.cto.flushes": get("nfs.client.cto.flushes"),
        "nfs.client.readahead": get("nfs.client.readahead"),
        "sgfs.client_proxy.forwarded": forwarded,
        "sgfs.client_proxy.absorbed": absorbed,
        "sgfs.client_proxy.absorb_ratio": div(absorbed, absorbed + forwarded),
        "sgfs.client_proxy.flushed_bytes": get(
            "sgfs.client_proxy.flushed_bytes"),
        "sgfs.flush_s": d.get("sgfs.flush_s"),
        "sgfs.server_proxy.forwarded": get("sgfs.server_proxy.forwarded"),
        "sgfs.server_proxy.fq_wait_s": scaled(
            "sgfs.server_proxy.fq_wait_ns.sum", 1e-9),
        "sgfs.session.full_handshakes": get("sgfs.session.full_handshakes"),
        "sgfs.session.resumed": get("sgfs.session.resumed"),
        "sgfs.session.fallback_full": get("sgfs.session.fallback_full"),
        "services.fss.sso_signatures": get("services.fss.sso_signatures"),
        "services.fss.sso_cache_hits": get("services.fss.sso_cache_hits"),
        "fleet.discovery_fetches": harness("fleet.discovery_fetches"),
        "fleet.establishes": harness("fleet.establishes"),
        "resource.client.cpu.busy_s": scaled("host.client.cpu.busy_ns",
                                             1e-9),
        "resource.server.cpu.busy_s": scaled("host.server.cpu.busy_ns", 1e-9),
        "resource.client.cpu.wait_s": scaled(
            "resource.client.cpu.wait_ns.sum", 1e-9),
        "resource.server.cpu.wait_s": scaled(
            "resource.server.cpu.wait_ns.sum", 1e-9),
        "resource.client.disk.busy_s": scaled("host.client.disk.busy_ns",
                                              1e-9),
        "resource.server.disk.busy_s": scaled("host.server.disk.busy_ns",
                                              1e-9),
        "buf.bytes_copied_per_payload_byte": div(get("buf.bytes_copied"),
                                                 payload),
        "buf.segments_allocated": get("buf.segments_allocated"),
        "setup.testbed_s": walls["setup.testbed_s"],
        "setup.preload_s": walls["setup.preload_s"],
        "setup.mount_s": walls["setup.mount_s"],
        "trace.spans": get("trace.spans"),
        "trace.overhead_s": walls["traced_s"] - walls["wall_s"],
    }

    # Wall estimates: counts from the traced run times unit costs measured
    # by timing the layers' public functions in the same process.
    out["sim.engine_wall_est_s"] = get("sim.events") * cal["sim.event_ns"] * 1e-9
    out["crypto.sym_wall_est_s"] = (
        records_sent * cal.get("crypto.send_record_ns", 0) +
        get("crypto.records_recv") * cal.get("crypto.recv_record_ns", 0)) * 1e-9
    # A full handshake costs one RSA sign, encrypt and decrypt and three
    # verifies (two certificates and the signed transcript); crypto.handshakes
    # counts both ends.  An SSO round signs two envelopes that the FSS
    # verifies with their certificates; each minted pass is one signature.
    per_hs = (cal["crypto.rsa_sign_ns"] + cal["crypto.rsa_encrypt_ns"] +
              cal["crypto.rsa_decrypt_ns"] + 3 * cal["crypto.rsa_verify_ns"])
    per_sso = 2 * cal["crypto.rsa_sign_ns"] + 4 * cal["crypto.rsa_verify_ns"]
    out["crypto.rsa_wall_est_s"] = (
        get("crypto.handshakes") / 2 * per_hs +
        get("storm.sso_authorizations") * per_sso +
        get("services.fss.sso_signatures") * cal["crypto.rsa_sign_ns"]) * 1e-9
    out["wall.other_s"] = other_wall(walls["wall_s"],
                                     [out[k] for k in ESTIMATE_NAMES])
    return out
