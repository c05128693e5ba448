#!/usr/bin/env python3
"""Bench regression gate.

Compares a freshly generated `bench json` dump against the committed
BENCH_*.json baseline and fails when the fresh run expands more states
than the baseline allows, when a baseline entry disappeared, or when the
fresh run grew entries the baseline does not know (pass --allow-new for
the commit that intentionally introduces them, then refresh the
baseline).

Entries are typed by their "kind" field (entries without one are treated
as "explore", which is what every pre-kind baseline contained):

  explore / sym / cache / service
                          carry a real states_expanded count — gated,
                          since state counts are deterministic per
                          (kind, name, machine, domains) and any growth
                          is a real regression (a reduction oracle that
                          stopped firing, a key that stopped
                          canonicalizing);
  overhead                carry payload + overhead_pct, NOT a state
                          count — wall-clock overhead pairs are reported
                          for context but never gated (CI machines are
                          too noisy);
  sim                     timing-simulator rows: events is tolerance-
                          gated like a state count, while total_cycles,
                          finals_crc and stalls_crc are bit-exact —
                          simulation is deterministic, so any drift in
                          simulated time or settled memory against the
                          baseline is a timing regression and fails
                          hard.  minor_words (words the run allocated
                          on the minor heap, fixed for a given binary)
                          is gated per event: more than 25% above the
                          baseline row's words per event fails; a
                          baseline row without the field is skipped.
                          The naive reference rows (machine
                          "*-naive") must also shed at least
                          --sim-shed-floor x the events of their parked
                          twin, re-proving the engine-scaling claim on
                          every run.

Explore rows at one domain and sym rows also carry minor_words: gated
per expanded state like a sim row's per event (more than 25% above the
baseline row's words per state fails; a baseline row without the field
is skipped).  It is the exploration engine's per-state allocation, which
does not depend on the machine's speed.

Additionally, sym rows in the fresh run are validated on their own
terms: every row's outcomes_equal must be true (the reduction may never
change the outcome set), and each benchmarked program must show at least
one machine at >= --sym-floor percent state reduction.  Service rows
(the differential-fuzzer oracle) must report disagreements == 0: the
three engines agreeing is a soundness invariant, not a performance
number, so a single disagreement fails the gate outright.

Every failure mode names the offending (name, machine) pair; a malformed
entry is an exit-2 diagnostic, never a KeyError traceback.

Usage: bench_gate.py BASELINE.json FRESH.json [--tolerance 0.10]
                     [--allow-new] [--sym-floor 30] [--sim-shed-floor 5]
                     [--kinds sim,service]
Exit 0 on pass, 1 on regression or unexplained entry churn, 2 on
unusable input.
"""

import argparse
import json
import sys


# Fields every entry must carry, then per-kind obligations on top.
COMMON_FIELDS = ("name", "machine", "domains")
KIND_FIELDS = {
    "explore": ("states_expanded",),
    "cache": ("states_expanded",),
    "sym": ("states_expanded", "states_nosym", "reduction_pct",
            "outcomes_equal"),
    "overhead": ("payload", "overhead_pct"),
    "service": ("states_expanded", "programs", "checks", "disagreements"),
    "sim": ("events", "total_cycles", "finals_crc", "stalls_crc"),
}
# Kinds whose deterministic count is tolerance-gated against the baseline.
GATED_KINDS = ("explore", "cache", "sym", "service", "sim")
# The deterministic count field per kind.
COUNT_FIELD = {"overhead": "payload", "sim": "events"}
# sim fields that must match the baseline bit for bit: simulated time and
# settled behaviour are deterministic, so any drift is a real regression.
SIM_EXACT_FIELDS = ("total_cycles", "finals_crc", "stalls_crc")
# Allowed growth of a row's minor-heap words per unit of work (engine
# event for sim rows, expanded state for explore/sym rows).  The count is
# deterministic for a given binary, so it gates the per-unit cost without
# depending on the machine's speed.
ALLOC_TOLERANCE = 0.25


def entry_kind(e):
    return e.get("kind", "explore")


def load_entries(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        print(f"bench gate: {path}: expected an object with an 'entries' "
              f"list", file=sys.stderr)
        sys.exit(2)
    entries = {}
    for i, e in enumerate(doc["entries"]):
        if not isinstance(e, dict):
            print(f"bench gate: {path}: entry #{i} is not an object",
                  file=sys.stderr)
            sys.exit(2)
        kind = entry_kind(e)
        if kind not in KIND_FIELDS:
            print(f"bench gate: {path}: entry #{i} has unknown kind "
                  f"{kind!r}", file=sys.stderr)
            sys.exit(2)
        required = COMMON_FIELDS + KIND_FIELDS[kind]
        missing = [f for f in required if f not in e]
        if missing:
            ident = f"{e.get('name', '?')}/{e.get('machine', '?')}"
            print(f"bench gate: {path}: entry #{i} ({ident}, kind {kind}) "
                  f"lacks field(s): {', '.join(missing)}", file=sys.stderr)
            sys.exit(2)
        count_field = COUNT_FIELD.get(kind, "states_expanded")
        if not isinstance(e[count_field], int):
            print(f"bench gate: {path}: entry #{i} "
                  f"({e['name']}/{e['machine']}): {count_field} is not "
                  f"an integer", file=sys.stderr)
            sys.exit(2)
        key = (kind, e["name"], e["machine"], e["domains"])
        if key in entries:
            print(f"bench gate: duplicate entry {key} in {path}",
                  file=sys.stderr)
            sys.exit(2)
        entries[key] = e
    if not entries:
        print(f"bench gate: {path} has no entries", file=sys.stderr)
        sys.exit(2)
    return entries


def check_sym_rows(new, floor, failures):
    """Fresh-run obligations on the symmetry differential rows."""
    rows = [e for key, e in new.items() if key[0] == "sym"]
    if not rows:
        failures.append(
            "no sym entries in the fresh run: the symmetry differential "
            "must be benchmarked (did `bench json` lose json_sym_entries?)")
        return
    best = {}
    for e in rows:
        label = f"sym {e['name']}/{e['machine']}"
        if e["outcomes_equal"] is not True:
            failures.append(
                f"{label}: outcomes_equal is {e['outcomes_equal']!r} — "
                f"symmetry reduction changed the outcome set (soundness "
                f"bug, do not ship)")
        pct = e["reduction_pct"]
        if not isinstance(pct, (int, float)):
            failures.append(f"{label}: reduction_pct is not a number")
            continue
        prev = best.get(e["name"])
        if prev is None or pct > prev:
            best[e["name"]] = pct
    for name, pct in sorted(best.items()):
        if pct < floor:
            failures.append(
                f"sym {name}: best reduction across machines is "
                f"{pct:.1f}%, below the {floor:.0f}% floor")
        else:
            print(f"bench gate: sym {name}: best reduction {pct:.1f}% "
                  f"(floor {floor:.0f}%)")


def check_sim_rows(old, new, shed_floor, failures):
    """Simulator obligations: bit-exact simulated behaviour against the
    baseline, and the naive reference rows re-proving the events-shed
    claim against their parked twins."""
    for key in sorted(old):
        if key[0] != "sim" or key not in new:
            continue
        _, name, machine, domains = key
        label = f"sim {name}/{machine} n={domains}"
        for field in SIM_EXACT_FIELDS:
            o, n = old[key][field], new[key][field]
            if o != n:
                failures.append(
                    f"{label}: {field} {o} -> {n} — simulated behaviour "
                    f"diverged from the baseline (timing regression or an "
                    f"engine-order bug; if the change is deliberate, "
                    f"refresh the committed baseline)")
        check_alloc(label, old[key], new[key], "events", "event",
                    failures)
    naive = {k: e for k, e in new.items()
             if k[0] == "sim" and k[2].endswith("-naive")}
    for (kind, name, machine, domains), e in sorted(naive.items()):
        twin = (kind, name, machine[: -len("-naive")], domains)
        label = f"sim {name}/{machine} n={domains}"
        if twin not in new:
            failures.append(f"{label}: no parked twin row "
                            f"{machine[: -len('-naive')]} to compare against")
            continue
        parked = new[twin]["events"]
        ratio = e["events"] / parked if parked else float("inf")
        if ratio < shed_floor:
            failures.append(
                f"{label}: parked run executes {parked} events vs {e['events']} "
                f"naive — only {ratio:.1f}x shed, below the "
                f"{shed_floor:.0f}x floor (spin parking or batching "
                f"stopped firing?)")
        else:
            print(f"bench gate: {label}: {e['events']} naive vs {parked} "
                  f"parked events ({ratio:.0f}x shed, floor "
                  f"{shed_floor:.0f}x)")


def check_alloc(label, old, new, count_field, unit, failures):
    """Minor-heap words per unit of work against the baseline row."""
    if "minor_words" not in old:
        print(f"bench gate: {label}: minor_words skipped (the baseline "
              f"row lacks the field)")
        return
    if not isinstance(new.get("minor_words"), int):
        failures.append(f"{label}: the fresh row lacks an integer "
                        f"minor_words")
        return
    o = old["minor_words"] / max(old[count_field], 1)
    n = new["minor_words"] / max(new[count_field], 1)
    limit = o * (1.0 + ALLOC_TOLERANCE)
    if n > limit:
        failures.append(
            f"{label}: {n:.1f} minor words per {unit} vs {o:.1f} in the "
            f"baseline (+{(n - o) / o * 100:.1f}%, limit "
            f"+{ALLOC_TOLERANCE:.0%}) — allocation per {unit} grew")
    elif n != o:
        print(f"bench gate: note: {label}: minor words per {unit} "
              f"{o:.1f} -> {n:.1f} (within tolerance)")


def check_service_rows(new, failures):
    """Fresh-run obligations on the differential-fuzzer rows."""
    rows = [e for key, e in new.items() if key[0] == "service"]
    for e in rows:
        label = f"service {e['name']}/{e['machine']}"
        d = e["disagreements"]
        if d != 0:
            failures.append(
                f"{label}: {d} oracle disagreement(s) — an engine "
                f"(machine, axiomatic model, or simulator) diverged on a "
                f"generated program (soundness bug, do not ship; rerun "
                f"`weakord fuzz` with --quarantine for the dossier)")
        else:
            print(f"bench gate: {label}: {e['programs']} programs, "
                  f"{e['checks']} checks, 0 disagreements")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional state-count growth "
                         "(default 0.10)")
    ap.add_argument("--allow-new", action="store_true",
                    help="tolerate fresh entries absent from the baseline "
                         "(for the commit that introduces them)")
    ap.add_argument("--sym-floor", type=float, default=30.0,
                    help="minimum best-machine state reduction percent "
                         "each sym-benchmarked program must reach "
                         "(default 30)")
    ap.add_argument("--sim-shed-floor", type=float, default=5.0,
                    help="minimum naive/parked event ratio each sim "
                         "*-naive row must show against its parked twin "
                         "(default 5)")
    ap.add_argument("--kinds", default=None,
                    help="comma-separated kinds to gate (default: all); "
                         "e.g. --kinds sim for the dedicated sim-scale "
                         "CI job against a full baseline")
    args = ap.parse_args()

    old = load_entries(args.baseline)
    new = load_entries(args.fresh)
    if args.kinds is not None:
        kinds = {k.strip() for k in args.kinds.split(",") if k.strip()}
        unknown = kinds - set(KIND_FIELDS)
        if unknown:
            print(f"bench gate: unknown kind(s) in --kinds: "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            sys.exit(2)
        old = {k: e for k, e in old.items() if k[0] in kinds}
        new = {k: e for k, e in new.items() if k[0] in kinds}
        if not old or not new:
            print(f"bench gate: --kinds {args.kinds} leaves no entries to "
                  f"compare", file=sys.stderr)
            sys.exit(2)
    else:
        kinds = set(KIND_FIELDS)

    failures = []
    for key in sorted(old):
        kind, name, machine, domains = key
        label = f"{name}/{machine} d={domains}"
        if key not in new:
            failures.append(
                f"{label}: baseline entry vanished from the fresh run "
                f"(renamed or dropped benchmark? refresh the baseline)")
            continue
        if kind not in GATED_KINDS:
            continue
        count_field = COUNT_FIELD.get(kind, "states_expanded")
        o, n = old[key][count_field], new[key][count_field]
        limit = o * (1.0 + args.tolerance)
        if n > limit:
            failures.append(
                f"{label}: {count_field} {o} -> {n} "
                f"(+{(n - o) / o * 100:.1f}%, limit +{args.tolerance:.0%})")
        elif n != o:
            print(f"bench gate: note: {label}: {count_field} {o} -> {n} "
                  f"(within tolerance)")
        if kind == "sym" or (kind == "explore" and domains == 1):
            check_alloc(f"{kind} {label}", old[key], new[key],
                        "states_expanded", "expanded state", failures)

    added = sorted(set(new) - set(old))
    if added:
        names = ", ".join(f"{n}/{m} d={d}" for _, n, m, d in added)
        if args.allow_new:
            print(f"bench gate: note: new entries not in baseline "
                  f"(allowed): {names}")
        else:
            failures.append(
                f"entries not in baseline: {names} (refresh the committed "
                f"baseline, or pass --allow-new for the introducing commit)")

    if "sym" in kinds:
        check_sym_rows(new, args.sym_floor, failures)
    if "service" in kinds:
        check_service_rows(new, failures)
    if "sim" in kinds:
        check_sim_rows(old, new, args.sim_shed_floor, failures)

    if failures:
        print(f"bench gate: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"bench gate: ok ({len(old)} baseline entries checked)")


if __name__ == "__main__":
    main()
