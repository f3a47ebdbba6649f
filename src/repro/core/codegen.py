"""Code generation: rendering workflow designs into executable Python.

SolutionWeaver's implementation plan (step order, adapters, QA checks) is
rendered into a standalone module that:

* talks to measurement tools **only** through ``catalog.call(...)`` — the
  generated code never imports framework internals;
* carries real analysis logic in its transform functions (the paper's case
  study 1 notes ArachNet builds "a direct processing pipeline" instead of
  reusing expert abstractions — those pipelines are these transforms);
* embeds quality assurance — consistency verification, sanity bounds,
  uncertainty quantification — as first-class functions whose outputs become
  the run's quality report.

The emitted module defines ``run(catalog, params) -> dict``.
"""

from __future__ import annotations

import functools
import json
from types import CodeType

from repro.core.artifacts import GeneratedSolution, StepType, WorkflowDesign
from repro.core.registry import Registry, parse_field_path

# ---------------------------------------------------------------------------
# Transform template library
# ---------------------------------------------------------------------------

TRANSFORM_TEMPLATES: dict[str, str] = {}
#: Each transform's bounded-field paths, in the registry's syntax
#: (:func:`~repro.core.registry.parse_field_path`).
TRANSFORM_BOUNDED_FIELDS: dict[str, tuple[str, ...]] = {}


def _register(name: str, code: str, bounded_fields: tuple[str, ...] = ()) -> None:
    if name in TRANSFORM_TEMPLATES:
        raise ValueError(f"duplicate transform template {name!r}")
    for path in bounded_fields:
        parse_field_path(path)
    TRANSFORM_TEMPLATES[name] = code.rstrip() + "\n"
    TRANSFORM_BOUNDED_FIELDS[name] = bounded_fields


_register("build_report", '''
def t_build_report(ranking, dependencies, title):
    """Assemble the final human-readable report structure."""
    rows = ranking if isinstance(ranking, list) else ranking.get("country_ranking", ranking)
    if isinstance(rows, dict):
        rows = [rows]
    context = {}
    if isinstance(dependencies, dict):
        for key in ("cable_name", "cable_id", "total_capacity_gbps",
                    "failed_cable_ids", "events_combined"):
            if key in dependencies:
                context[key] = dependencies[key]
        for key in ("link_ids", "ips", "asns", "country_codes"):
            if key in dependencies:
                context[f"{key}_count"] = len(dependencies[key])
    return {
        "title": title,
        "generated_by": "ArachNet SolutionWeaver",
        "ranking": rows,
        "context": context,
        "row_count": len(rows) if isinstance(rows, list) else 1,
    }
''', bounded_fields=("ranking[].score", "ranking[].capacity_lost_gbps"))


_register("aggregate_impact_by_country", '''
def t_aggregate_impact_by_country(dependencies, locations, all_links):
    """Directly aggregate a cable's dependency set into per-country impact.

    Replaces the withheld impact framework: counts affected IPs, links,
    networks and capacity per country, then normalises each metric by the
    country's *total* mapped infrastructure (derived from the full
    cross-layer map) — impact means "what fraction of this country's
    connectivity is gone", not "what share of the damage landed here".
    """
    ip_country = {}
    for ip, info in locations.items():
        ip_country[ip] = info.get("country")

    totals = {}
    for row in all_links.values():
        for code in {row.get("country_a"), row.get("country_b")}:
            if not code:
                continue
            entry = totals.setdefault(
                code, {"links_total": 0, "capacity_total_gbps": 0.0}
            )
            entry["links_total"] += 1
            entry["capacity_total_gbps"] += row.get("capacity_gbps", 0.0)

    per_country = {}

    def record(code):
        if code not in per_country:
            per_country[code] = {
                "country": code,
                "ips_affected": 0,
                "links_affected": 0,
                "networks_affected": 0,
                "capacity_lost_gbps": 0.0,
            }
        return per_country[code]

    ips = list(dependencies.get("ips", []))
    for ip in ips:
        code = ip_country.get(ip)
        if code:
            record(code)["ips_affected"] += 1

    # The dependency extractor emits endpoint IPs pairwise per link.
    link_count = max(1, len(dependencies.get("link_ids", [])))
    capacity_per_link = dependencies.get("total_capacity_gbps", 0.0) / link_count
    for i in range(0, len(ips) - 1, 2):
        code_a = ip_country.get(ips[i])
        code_b = ip_country.get(ips[i + 1])
        for code in {code_a, code_b}:
            if code:
                row = record(code)
                row["links_affected"] += 1
                row["capacity_lost_gbps"] += capacity_per_link

    # Approximate affected networks per country by distinct /24s seen there.
    nets = {}
    for ip in ips:
        code = ip_country.get(ip)
        if not code:
            continue
        net = ip.rsplit(".", 1)[0]
        nets.setdefault(code, set()).add(net)
    for code, net_set in nets.items():
        record(code)["networks_affected"] = len(net_set)

    for code, row in per_country.items():
        denom = totals.get(code, {"links_total": 0, "capacity_total_gbps": 0.0})
        links_total = denom["links_total"] or 1
        ips_total = 2 * links_total
        capacity_total = denom["capacity_total_gbps"] or 1.0
        row["link_fraction"] = round(min(1.0, row["links_affected"] / links_total), 6)
        row["ip_fraction"] = round(min(1.0, row["ips_affected"] / ips_total), 6)
        row["capacity_fraction"] = round(
            min(1.0, row["capacity_lost_gbps"] / capacity_total), 6
        )
        row["score"] = round(
            (row["link_fraction"] + row["ip_fraction"] + row["capacity_fraction"]) / 3.0,
            6,
        )
    return per_country
''', bounded_fields=("*.capacity_lost_gbps", "*.score"))


_register("rank_countries_by_impact", '''
def t_rank_countries_by_impact(impacts):
    """Order per-country impact rows by score, most affected first."""
    rows = list(impacts.values()) if isinstance(impacts, dict) else list(impacts)
    rows.sort(key=lambda r: (r.get("score", 0.0), r.get("ips_affected", 0)), reverse=True)
    return rows
''', bounded_fields=("[].capacity_lost_gbps", "[].score"))


_register("split_events_by_kind", '''
def t_split_events_by_kind(events):
    """Partition catalog events by kind, guaranteeing expected keys."""
    out = {"earthquake": [], "hurricane": [], "cable_cut": []}
    for event in events:
        out.setdefault(event.get("kind", "unknown"), []).append(event)
    return out
''')


_register("combine_reports", '''
def t_combine_reports(reports_a, reports_b=None):
    """Merge per-event impact reports into one global summary."""
    reports = list(reports_a) + list(reports_b or [])
    failed_cables = set()
    failed_links = set()
    country_scores = {}
    capacity = 0.0
    for report in reports:
        failed_cables.update(report.get("failed_cable_ids", []))
        failed_links.update(report.get("failed_link_ids", []))
        capacity += report.get("total_capacity_lost_gbps", 0.0)
        for row in report.get("country_ranking", []):
            code = row["country"]
            country_scores[code] = country_scores.get(code, 0.0) + row.get("score", 0.0)
    ranking = [
        {"country": code, "score": round(score, 6)}
        for code, score in sorted(country_scores.items(), key=lambda kv: kv[1], reverse=True)
    ]
    return {
        "events_combined": len(reports),
        "failed_cable_ids": sorted(failed_cables),
        "failed_link_ids": sorted(failed_links),
        "country_ranking": ranking,
        "total_capacity_lost_gbps": round(capacity, 1),
    }
''', bounded_fields=("country_ranking[].score",))


_register("filter_cables_by_regions", '''
def t_filter_cables_by_regions(cables, region_a, region_b, region_country_map):
    """Keep cables with landing points in both of two continental regions."""
    country_region = {}
    for region, countries in region_country_map.items():
        for code in countries:
            country_region[code] = region
    scoped = []
    for cable in cables:
        regions = {country_region.get(code) for code in cable.get("landing_countries", [])}
        if region_a in regions and region_b in regions:
            scoped.append(cable)
    return {
        "cables": scoped,
        "cable_ids": [c["cable_id"] for c in scoped],
        "cable_names": [c["name"] for c in scoped],
    }
''')


_register("derive_initial_failures", '''
def t_derive_initial_failures(mappings, scoped):
    """Initial failure set: links mapped onto the scoped corridor cables."""
    scoped_ids = set(scoped.get("cable_ids", []))
    failed_link_ids = sorted(
        link_id
        for link_id, row in mappings.items()
        if row.get("cable_id") in scoped_ids
    )
    cable_events = [
        {"kind": "cable_cut", "cable_names": [name], "id": f"cut-{name}"}
        for name in scoped.get("cable_names", [])
    ]
    return {
        "failed_link_ids": failed_link_ids,
        "cable_ids": sorted(scoped_ids),
        "cable_names": list(scoped.get("cable_names", [])),
        "cable_events": cable_events,
    }
''')


_register("propagate_cascade_rounds", '''
def t_propagate_cascade_rounds(initial, mappings, impact,
                               share_threshold=0.7, min_shared=3, max_rounds=6):
    """Propagate cable failures over shared-AS bridges.

    A surviving cable is stressed in proportion to the fraction of its ASes
    that also ride already-failed cables; heavily shared cables (fraction >=
    ``share_threshold`` with at least ``min_shared`` shared ASes) fail in the
    next round.  This is the generated graph algorithm standing in for a
    full load-redistribution simulation.
    """
    cable_ases = {}
    cable_links = {}
    for link_id, row in mappings.items():
        cable_id = row.get("cable_id")
        if cable_id is None:
            continue
        ases = cable_ases.setdefault(cable_id, set())
        for key in ("asn_a", "asn_b"):
            if key in row:
                ases.add(row[key])
        cable_links.setdefault(cable_id, set()).add(link_id)

    failed = set(initial.get("cable_ids", []))
    rounds = []
    for round_index in range(1, max_rounds + 1):
        failed_ases = set()
        for cable_id in failed:
            failed_ases.update(cable_ases.get(cable_id, set()))
        newly = []
        stress = {}
        for cable_id, ases in cable_ases.items():
            if cable_id in failed or not ases:
                continue
            shared = len(ases & failed_ases)
            fraction = shared / len(ases)
            stress[cable_id] = round(fraction, 4)
            if fraction >= share_threshold and shared >= min_shared:
                newly.append(cable_id)
        if not newly:
            break
        newly.sort()
        failed.update(newly)
        rounds.append({
            "round": round_index,
            "newly_failed_cables": newly,
            "stress": {cid: stress[cid] for cid in sorted(stress)},
        })

    isolated = []
    as_cables = {}
    for cable_id, ases in cable_ases.items():
        for asn in ases:
            as_cables.setdefault(asn, set()).add(cable_id)
    for asn, cids in sorted(as_cables.items()):
        if cids and cids.issubset(failed):
            isolated.append(asn)

    failed_links = set(initial.get("failed_link_ids", []))
    for cable_id in failed:
        failed_links.update(cable_links.get(cable_id, set()))
    return {
        "initial_cable_ids": sorted(initial.get("cable_ids", [])),
        "rounds": rounds,
        "final_failed_cables": sorted(failed),
        "final_failed_link_ids": sorted(failed_links),
        "isolated_asns": isolated,
        "total_rounds": len(rounds),
    }
''')


_register("build_cascade_timeline", '''
def t_build_cascade_timeline(impact, cascade, path_changes, latency_series, scoped):
    """Unify impact, cascade, routing and latency into one timeline."""
    events = []
    for cable_id in cascade.get("initial_cable_ids", []):
        events.append({"order": 0, "layer": "cable", "event": "initial_failure",
                       "id": cable_id})
    for rnd in cascade.get("rounds", []):
        for cable_id in rnd.get("newly_failed_cables", []):
            events.append({"order": rnd["round"], "layer": "cable",
                           "event": "cascade_failure", "id": cable_id})
    for link_id in cascade.get("final_failed_link_ids", [])[:200]:
        events.append({"order": 1, "layer": "ip", "event": "link_down", "id": link_id})
    for asn in cascade.get("isolated_asns", []):
        events.append({"order": cascade.get("total_rounds", 0) + 1, "layer": "as",
                       "event": "as_isolated", "id": str(asn)})
    for change in path_changes.get("changes", [])[:100]:
        events.append({"order": 1, "layer": "as", "event": "path_change",
                       "id": change["prefix"],
                       "detail": {"length_delta": change["length_delta"]}})
    for lost in path_changes.get("lost", [])[:100]:
        events.append({"order": 1, "layer": "as", "event": "prefix_unreachable",
                       "id": lost["prefix"]})
    layer_counts = {}
    for event in events:
        layer_counts[event["layer"]] = layer_counts.get(event["layer"], 0) + 1
    degraded_pairs = []
    for key, bins in latency_series.items():
        values = [v for v in bins.get("median_rtt_ms", ()) if v is not None]
        if len(values) >= 2 and values[-1] > values[0] * 1.1:
            degraded_pairs.append(key)
    events.sort(key=lambda e: (e["order"], e["layer"], str(e["id"])))
    return {
        "timeline": events,
        "layer_counts": layer_counts,
        "corridor_cables": scoped.get("cable_names", []),
        "country_ranking": impact.get("country_ranking", []),
        "degraded_latency_pairs": sorted(degraded_pairs),
        "cascade_rounds": cascade.get("total_rounds", 0),
    }
''', bounded_fields=("country_ranking[].score",))


_register("summarize_latency_anomalies", '''
def t_summarize_latency_anomalies(anomalies):
    """Consensus view over per-pair latency anomalies."""
    significant = [a for a in anomalies if a.get("significant")]
    if not significant:
        return {
            "anomaly_detected": False,
            "significant_count": 0,
            "affected_pairs": [],
            "onset_estimate": None,
            "onset_end": None,
            "max_increase_pct": 0.0,
            "mean_increase_pct": 0.0,
        }
    onsets = sorted(a["onset_ts"] for a in significant)
    onset = onsets[len(onsets) // 2]
    increases = [a["increase_pct"] for a in significant]
    return {
        "anomaly_detected": True,
        "significant_count": len(significant),
        "affected_pairs": sorted(a["series_key"] for a in significant),
        "onset_estimate": onset,
        "onset_end": onset + 3600.0,
        "onset_spread_s": onsets[-1] - onsets[0],
        "max_increase_pct": max(increases),
        "mean_increase_pct": sum(increases) / len(increases),
        "min_p_value": min(a["p_value"] for a in significant),
    }
''')


_register("score_suspect_cables", '''
def t_score_suspect_cables(anomaly_summary, measurements, mappings):
    """Rank cables by vanished-link evidence on anomalous paths.

    Links present on an anomalous pair's path before the onset but absent
    after it are exactly the links the reroute avoided — the failed
    infrastructure.  Each vanished link votes for its mapped cable
    candidates, weighted by mapping confidence.
    """
    onset = anomaly_summary.get("onset_estimate")
    affected = set(anomaly_summary.get("affected_pairs", []))
    if onset is None or not affected:
        return {"ranking": [], "top_cable_id": None, "top_cable_name": None,
                "margin": 0.0, "vanished_link_count": 0}

    # Per affected pair, the paths (indices into the measurement table's
    # link pool) seen before and after the onset, in order of first use.
    pre_paths = {}
    post_paths = {}
    for src, dst, ts, path in zip(measurements["src_country"], measurements["dst_country"],
                                  measurements["ts"], measurements["link_index"]):
        pair = f"{src}->{dst}"
        if pair not in affected:
            continue
        bucket = pre_paths if ts < onset else post_paths
        bucket.setdefault(pair, {})[path] = None

    pool = measurements["link_pool"]

    def links(paths):
        found = set()
        for path in paths:
            found.update(pool[path])
        return found

    vanished_votes = {}
    for pair, paths_before in pre_paths.items():
        for link_id in links(paths_before) - links(post_paths.get(pair, ())):
            vanished_votes[link_id] = vanished_votes.get(link_id, 0) + 1

    id_to_name = {}
    scores = {}
    for link_id, votes in vanished_votes.items():
        row = mappings.get(link_id)
        if not row:
            continue
        if row.get("cable_name"):
            id_to_name[row["cable_id"]] = row["cable_name"]
        candidates = row.get("candidates", [])
        total = sum(c["score"] for c in candidates) or 1.0
        for candidate in candidates:
            weight = candidate["score"] / total
            cid = candidate["cable_id"]
            scores[cid] = scores.get(cid, 0.0) + votes * weight

    ranking = [
        {"cable_id": cid, "cable_name": id_to_name.get(cid),
         "score": round(score, 4)}
        for cid, score in sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
    ]
    top = ranking[0] if ranking else None
    margin = 0.0
    if len(ranking) >= 2 and ranking[0]["score"] > 0:
        margin = (ranking[0]["score"] - ranking[1]["score"]) / ranking[0]["score"]
    elif len(ranking) == 1:
        margin = 1.0
    return {
        "ranking": ranking,
        "top_cable_id": top["cable_id"] if top else None,
        "top_cable_name": top["cable_name"] if top else None,
        "margin": round(margin, 4),
        "vanished_link_count": len(vanished_votes),
    }
''', bounded_fields=("ranking[].score",))


_register("synthesize_forensic_evidence", '''
def t_synthesize_forensic_evidence(latency_summary, suspects, bgp_anomalies,
                                   bgp_correlation):
    """Combine the three evidence strands into a causation verdict."""
    strands = []

    detected = latency_summary.get("anomaly_detected", False)
    stat_strength = 0.0
    if detected:
        stat_strength = min(1.0, latency_summary.get("significant_count", 0) / 5.0)
        stat_strength = max(stat_strength, 0.4)
    strands.append({
        "kind": "statistical",
        "supports": detected,
        "strength": round(stat_strength, 4),
        "detail": f"{latency_summary.get('significant_count', 0)} significant "
                  f"pair anomalies, max increase "
                  f"{latency_summary.get('max_increase_pct', 0):.1f}%",
    })

    margin = suspects.get("margin", 0.0)
    infra_supports = suspects.get("top_cable_id") is not None
    infra_strength = min(1.0, 0.5 + margin / 2.0) if infra_supports else 0.0
    strands.append({
        "kind": "infrastructure",
        "supports": infra_supports,
        "strength": round(infra_strength, 4),
        "detail": f"top suspect {suspects.get('top_cable_id')} with margin "
                  f"{margin:.2f} over runner-up",
    })

    onset = latency_summary.get("onset_estimate")
    bgp_aligned = False
    if onset is not None and bgp_anomalies:
        top = bgp_anomalies[0]
        bgp_aligned = top["window_start"] - 7200 <= onset <= top["window_end"] + 7200
    correlated = bool(bgp_correlation.get("correlated", False))
    routing_supports = bgp_aligned and correlated
    routing_strength = 0.0
    if routing_supports:
        ratio = bgp_correlation.get("rate_ratio", 1.0)
        routing_strength = min(1.0, 0.4 + min(ratio, 10.0) / 20.0)
    strands.append({
        "kind": "routing",
        "supports": routing_supports,
        "strength": round(routing_strength, 4),
        "detail": f"update burst aligned={bgp_aligned}, "
                  f"rate ratio {bgp_correlation.get('rate_ratio', 0)}",
    })

    supporting = [s for s in strands if s["supports"]]
    confidence = sum(s["strength"] for s in supporting) / len(strands)
    confidence += 0.05 * max(0, len({s["kind"] for s in supporting}) - 1)
    confidence = round(min(1.0, confidence), 4)
    if confidence >= 0.6 and len(supporting) == 3:
        verdict = "cable_failure_established"
    elif confidence >= 0.4:
        verdict = "cable_failure_probable"
    else:
        verdict = "inconclusive"

    lines = [f"Verdict: {verdict} (confidence {confidence:.2f})."]
    if suspects.get("top_cable_id"):
        lines.append(
            f"Identified cable: {suspects.get('top_cable_name') or suspects['top_cable_id']}"
        )
    for strand in strands:
        stance = "supports" if strand["supports"] else "does not support"
        lines.append(f"- {strand['kind']}: {stance} ({strand['detail']})")
    return {
        "verdict": verdict,
        "confidence": confidence,
        "identified_cable_id": suspects.get("top_cable_id"),
        "identified_cable_name": suspects.get("top_cable_name"),
        "onset_estimate": onset,
        "strands": strands,
        "narrative": "\\n".join(lines),
    }
''', bounded_fields=("confidence",))


# ---------------------------------------------------------------------------
# QA template library
# ---------------------------------------------------------------------------

QA_TEMPLATES: dict[str, str] = {}


def _register_qa(name: str, code: str) -> None:
    if name in QA_TEMPLATES:
        raise ValueError(f"duplicate QA template {name!r}")
    QA_TEMPLATES[name] = code.rstrip() + "\n"


_register_qa("sanity_bounds", '''
def qa_sanity_bounds(results):
    """Check each step's declared bounded fields: scores in [0,1], RTTs
    non-negative.

    ``BOUNDED_FIELDS`` gives each step's fields as a tree of dict keys,
    ``*`` (every value of a map) and ``[]`` (every item of a list or
    tuple); nothing else of a step is read.  Lists are sampled to their
    first 200 items and violations come in depth-first data order.  A
    value is named by its last key (``s1.rtt_ms[3]`` is an ``rtt_ms``).
    A column of scalars is checked in one pass, and its items formatted
    only when the pass finds a violation.
    """
    from functools import partial
    from operator import and_, ge, gt, is_not, le

    violations = []
    unit_leaves = {"score", "confidence", "p_value", "fraction"}
    positive_leaves = {"rtt_ms", "median_rtt_ms", "capacity_lost_gbps"}
    low, high = -1e-9, 1.0 + 1e-9

    def check(path, leaf, value):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        if leaf in unit_leaves and not (low <= value <= high):
            violations.append(f"{path}={value} outside [0,1]")
        if leaf in positive_leaves and value < 0:
            violations.append(f"{path}={value} negative")

    def clean(leaf, column):
        # Comparisons skip None and pass bools; anything else that cannot
        # compare (a string) raises and sends the column to check().
        try:
            values = [*filter(partial(is_not, None), column)]
            if leaf in unit_leaves:
                return all(map(and_, map(partial(le, low), values),
                               map(partial(ge, high), values)))
            return leaf not in positive_leaves or not any(map(partial(gt, 0), values))
        except TypeError:
            return False

    def walk(path, leaf, value, shape):
        if isinstance(value, dict):
            each = shape.get("*")
            for key, item in value.items():
                child = shape.get(key) if each is None else each
                if child is not None:
                    walk(f"{path}.{key}", leaf if each is not None else key, item, child)
        elif isinstance(value, (list, tuple)):
            child = shape.get("[]")
            sample = value[:200]
            if child:
                for i, item in enumerate(sample):
                    walk(f"{path}[{i}]", leaf, item, child)
            elif child is not None and not clean(leaf, sample):
                for i, item in enumerate(sample):
                    check(f"{path}[{i}]", leaf, item)
        elif not shape:
            check(path, leaf, value)

    for step_id, output in results.items():
        shape = BOUNDED_FIELDS.get(step_id)
        if shape:
            walk(step_id, step_id, output, shape)
    return {"passed": not violations, "violations": violations[:20],
            "violation_count": len(violations)}
''')


_register_qa("coverage_check", '''
def qa_coverage_check(results):
    """Every step should have produced a non-empty output (a measurement
    table is empty when it has no rows)."""
    empty = []
    for step_id, output in results.items():
        if isinstance(output, dict) and "link_index" in output:
            output = output["link_index"]
        if output is None or (hasattr(output, "__len__") and len(output) == 0):
            empty.append(step_id)
    covered = len(results) - len(empty)
    return {"passed": not empty, "empty_steps": empty,
            "coverage": round(covered / len(results), 4) if results else 0.0}
''')


_register_qa("uncertainty_quantification", '''
def qa_uncertainty_quantification(results):
    """Surface the uncertainty carried by probabilistic intermediate data."""
    report = {}
    for step_id, output in results.items():
        if isinstance(output, dict) and output and all(
            isinstance(v, dict) and "confidence" in v for v in list(output.values())[:5]
        ):
            confidences = [v["confidence"] for v in output.values()]
            confidences.sort()
            n = len(confidences)
            report[step_id] = {
                "kind": "mapping_confidence",
                "count": n,
                "median": confidences[n // 2],
                "below_half": sum(1 for c in confidences if c < 0.5),
            }
        if isinstance(output, list) and output and isinstance(output[0], dict) \\
                and "p_value" in output[0]:
            p_values = [row["p_value"] for row in output]
            report[step_id] = {"kind": "p_values", "count": len(p_values),
                               "max": max(p_values)}
    return {"passed": True, "sources": report}
''')


_register_qa("consistency_cross_source", '''
def qa_consistency_cross_source(results):
    """Cross-source agreement checks, applied where the data allows."""
    checks = []
    outputs = list(results.values())

    deps = next((o for o in outputs if isinstance(o, dict) and "country_codes" in o
                 and "ips" in o), None)
    locations = next((o for o in outputs if isinstance(o, dict) and o and all(
        isinstance(v, dict) and "country" in v for v in list(o.values())[:5]
    )), None)
    if deps is not None and locations is not None:
        geo_countries = {v["country"] for v in locations.values()}
        dep_countries = set(deps["country_codes"])
        overlap = len(geo_countries & dep_countries)
        union = len(geo_countries | dep_countries) or 1
        checks.append({"check": "dependency_vs_geolocation_countries",
                       "jaccard": round(overlap / union, 4),
                       "passed": overlap / union >= 0.5})

    latency = next((o for o in outputs if isinstance(o, dict)
                    and "onset_estimate" in o and "affected_pairs" in o), None)
    bgp = next((o for o in outputs if isinstance(o, list) and o
                and isinstance(o[0], dict) and "window_start" in o[0]
                and "zscore" in o[0]), None)
    if latency is not None and bgp is not None and latency.get("onset_estimate"):
        onset = latency["onset_estimate"]
        aligned = any(a["window_start"] - 7200 <= onset <= a["window_end"] + 7200
                      for a in bgp[:3])
        checks.append({"check": "latency_onset_vs_bgp_burst",
                       "passed": aligned})

    return {"passed": all(c.get("passed", True) for c in checks), "checks": checks}
''')


_register_qa("significance_assessment", '''
def qa_significance_assessment(results):
    """Collect the declared p-values; flag weak statistical support.

    Reads the ``p_value`` of every dict that a ``BOUNDED_FIELDS`` path
    ending in ``p_value`` leads to, sampling lists to their first 300 items.
    """
    p_values = []

    def reaching(shape):  # the part of a shape that leads to a p_value
        return {key: sub for key, child in shape.items()
                if (sub := reaching(child)) or key == "p_value"}

    def walk(value, shape):
        if isinstance(value, dict):
            if "p_value" in shape and isinstance(value.get("p_value"), (int, float)):
                p_values.append(float(value["p_value"]))
            if "*" in shape:
                for item in value.values():
                    walk(item, shape["*"])
            else:
                for key, child in shape.items():
                    if child and key in value:
                        walk(value[key], child)
        elif isinstance(value, (list, tuple)) and "[]" in shape:
            for item in value[:300]:
                walk(item, shape["[]"])

    for step_id, output in results.items():
        shape = reaching(BOUNDED_FIELDS.get(step_id, {}))
        if shape:
            walk(output, shape)
    significant = sum(1 for p in p_values if p < 0.01)
    return {
        "passed": not p_values or significant > 0,
        "p_value_count": len(p_values),
        "significant_at_1pct": significant,
    }
''')


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

_HELPERS = '''
def _field(value, path):
    """Extract a (possibly dotted) field from a step output."""
    current = value
    for part in path.split("."):
        if isinstance(current, dict):
            current = current[part]
        else:
            current = getattr(current, part)
    return current
'''


def count_loc(source: str) -> int:
    """Non-blank, non-comment source lines (docstrings count: they are code)."""
    return sum(
        1
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def _binding_expr(binding: str, foreach_active: bool) -> str:
    if binding == "item":
        if not foreach_active:
            raise ValueError("'item' binding outside a foreach step")
        return "_item"
    kind, payload = binding.split(":", 1)
    if kind == "workflow":
        return f'params["{payload}"]'
    if kind == "const":
        return repr(json.loads(payload))
    if kind == "step":
        if "." in payload:
            step_id, path = payload.split(".", 1)
            return f'_field(results["{step_id}"], "{path}")'
        return f'results["{payload}"]'
    raise ValueError(f"unknown binding {binding!r}")


#: Generated sources whose code objects stay compiled.  A code object is
#: ~20 KiB, so this caps the cache at ~2.5 MB per process; the campaign and
#: the four case queries produce under 30 distinct sources.
COMPILE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def compile_solution(source: str) -> CodeType:
    """The code object for a generated module, compiled once per source.

    Shared by :func:`generate_solution`'s fail-fast check and the executor.
    Safe to share because a code object is immutable and every run ``exec``s
    it into a fresh namespace.  A ``SyntaxError`` propagates and is never
    cached, so bad codegen fails fast on every call.
    """
    return compile(source, "<arachnet-generated>", "exec")


def bounded_field_shapes(steps, registry: Registry) -> dict[str, dict]:
    """Each step's declared bounded fields as one tree, as the generated
    QA checks read them: a dict per path segment, ``{}`` where a path ends.

    A registry step's paths come from its entry, a transform's from
    :data:`TRANSFORM_BOUNDED_FIELDS`; a foreach step's collected list adds
    a leading ``[]``.  Steps that declare nothing are left out.
    """
    shapes = {}
    for step in steps:
        if step.step_type is StepType.REGISTRY:
            declared = registry.get(step.target).bounded_fields
            prefix = ("[]",) if step.foreach else ()
        else:
            declared, prefix = TRANSFORM_BOUNDED_FIELDS[step.target], ()
        shape: dict = {}
        for path in declared:
            node = shape
            for segment in prefix + parse_field_path(path):
                node = node.setdefault(segment, {})
        if shape:
            shapes[step.id] = shape
    return shapes


def generate_solution(
    design: WorkflowDesign,
    plan: dict,
    query: str,
    registry: Registry,
) -> GeneratedSolution:
    """Render a workflow design plus weaver plan into executable source.

    ``registry`` supplies each registry step's declared bounded fields.
    """
    steps_by_id = {step.id: step for step in design.chosen.steps}
    order = [sid for sid in plan.get("step_order", []) if sid in steps_by_id]
    for step in design.chosen.steps:  # append anything the plan missed
        if step.id not in order:
            order.append(step.id)

    used_transforms = sorted(
        {
            step.target
            for step in design.chosen.steps
            if step.step_type is StepType.TRANSFORM
        }
    )
    for name in used_transforms:
        if name not in TRANSFORM_TEMPLATES:
            raise ValueError(f"no template for transform {name!r}")
    qa_checks = [name for name in plan.get("qa_checks", []) if name in QA_TEMPLATES]

    lines: list[str] = []
    emit = lines.append
    emit('"""Measurement workflow generated by ArachNet.')
    emit("")
    emit(f"Query: {query}")
    emit("")
    emit("This module was produced by the SolutionWeaver agent from a")
    emit("WorkflowScout design.  It talks to measurement tools exclusively")
    emit("through the provided tool catalog and embeds quality assurance")
    emit("checks whose results accompany the analytical output.")
    emit('"""')
    emit("")
    emit(_HELPERS.strip())
    emit("")

    for name in used_transforms:
        emit("")
        emit(TRANSFORM_TEMPLATES[name].strip())
        emit("")
    for name in qa_checks:
        emit("")
        emit(QA_TEMPLATES[name].strip())
        emit("")

    emit("")
    emit("# Each step's declared bounded fields, read by the QA checks: \"*\" is")
    emit("# every value of a map, \"[]\" every item of a list, {} a field's end.")
    emit("BOUNDED_FIELDS = {")
    for sid, shape in bounded_field_shapes([steps_by_id[sid] for sid in order], registry).items():
        emit(f'    "{sid}": {json.dumps(shape)},')
    emit("}")
    emit("")

    defaults_repr = repr(design.param_defaults)
    emit("")
    emit("def run(catalog, params=None):")
    emit('    """Execute the workflow against a tool catalog."""')
    emit(f"    defaults = {defaults_repr}")
    emit("    params = {**defaults, **(params or {})}")
    emit("    results = {}")

    for sid in order:
        step = steps_by_id[sid]
        emit("")
        note = step.note or step.target
        emit(f"    # step {sid}: {note}")
        if step.step_type is StepType.REGISTRY:
            if step.foreach:
                items_expr = _binding_expr(step.foreach, foreach_active=False)
                kwargs = ", ".join(
                    f"{param}={_binding_expr(binding, foreach_active=True)}"
                    for param, binding in sorted(step.inputs.items())
                )
                emit(f"    _items = {items_expr}")
                emit("    _collected = []")
                emit("    for _item in _items:")
                emit(f'        _collected.append(catalog.call("{step.target}", {kwargs}))')
                emit(f'    results["{sid}"] = _collected')
            else:
                kwargs = ", ".join(
                    f"{param}={_binding_expr(binding, foreach_active=False)}"
                    for param, binding in sorted(step.inputs.items())
                )
                emit(f'    results["{sid}"] = catalog.call("{step.target}", {kwargs})')
        else:
            kwargs = ", ".join(
                f"{param}={_binding_expr(binding, foreach_active=False)}"
                for param, binding in sorted(step.inputs.items())
            )
            emit(f'    results["{sid}"] = t_{step.target}({kwargs})')

    emit("")
    emit("    quality_report = {}")
    for name in qa_checks:
        emit(f'    quality_report["{name}"] = qa_{name}(results)')
    final_sid = order[-1] if order else ""
    emit("    return {")
    emit('        "results": results,')
    emit('        "quality_report": quality_report,')
    emit(f'        "final": results.get("{final_sid}"),')
    emit("    }")
    emit("")

    source = "\n".join(lines)
    compile_solution(source)  # fail fast on bad codegen
    return GeneratedSolution(
        source_code=source,
        entrypoint="run",
        qa_checks=qa_checks,
        adapters=[a["description"] for a in plan.get("adapters", [])],
        loc=count_loc(source),
        notes=plan.get("notes", ""),
    )
