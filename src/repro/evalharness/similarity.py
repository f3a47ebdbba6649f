"""Result similarity: do two analyses reach the same conclusions?

Country rankings are compared with Spearman rank correlation over the
common key set plus top-k agreement — the quantitative reading of the
paper's "produces similar impact metrics".
"""

from __future__ import annotations

from repro.analysis.stats import spearman


def _as_score_map(ranking: list[dict], key: str, score_key: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in ranking:
        if key in row:
            out[str(row[key])] = float(row.get(score_key, 0.0))
    return out


def ranking_similarity(
    ranking_a: list[dict],
    ranking_b: list[dict],
    key: str = "country",
    score_key: str = "score",
) -> dict:
    """Spearman correlation between two rankings over their common keys."""
    map_a = _as_score_map(ranking_a, key, score_key)
    map_b = _as_score_map(ranking_b, key, score_key)
    common = sorted(set(map_a) & set(map_b))
    union = set(map_a) | set(map_b)
    if len(common) < 3:
        return {
            "common_keys": len(common),
            "key_jaccard": round(len(common) / len(union), 4) if union else 1.0,
            "spearman": None,
        }
    values_a = [map_a[k] for k in common]
    values_b = [map_b[k] for k in common]
    if len(set(values_a)) == 1 or len(set(values_b)) == 1:
        rho = 0.0
    else:
        rho = spearman(values_a, values_b)
    return {
        "common_keys": len(common),
        "key_jaccard": round(len(common) / len(union), 4) if union else 1.0,
        "spearman": round(rho, 4),
    }


def top_k_overlap(
    ranking_a: list[dict],
    ranking_b: list[dict],
    k: int = 5,
    key: str = "country",
) -> float:
    """Fraction of the top-k entries the two rankings share."""
    if k <= 0:
        raise ValueError("k must be positive")
    top_a = {str(row[key]) for row in ranking_a[:k] if key in row}
    top_b = {str(row[key]) for row in ranking_b[:k] if key in row}
    if not top_a and not top_b:
        return 1.0
    denom = min(k, max(len(top_a), len(top_b)))
    return len(top_a & top_b) / denom if denom else 0.0


def relative_error(value_a: float, value_b: float) -> float:
    """|a-b| / max(|a|,|b|), zero when both are zero."""
    denom = max(abs(value_a), abs(value_b))
    return abs(value_a - value_b) / denom if denom else 0.0
