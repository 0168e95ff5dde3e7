"""Seeded input generators.

Each generator returns the bytes the program reads (CSV or network JSON) and
the generator's own view of the same data, which the output checks use as
their oracle. The same seed gives the same bytes. vizscene never sees the
generator's view, only the bytes.
"""

from __future__ import annotations

import json
import random

# The four labels of the gallery survey. The diverging-bar pipeline aligns on
# `where response == "strongly disagree"`, so a survey with other labels would
# select no cells and leave the alignment constraint idle.
RESPONSES = ("strongly agree", "agree", "disagree", "strongly disagree")


def survey(rng: random.Random, ages: int, columns=("age", "response", "pct")):
    """Survey table: `ages` age buckets x the four response labels.

    Chosen because diverging_bar repeats by age, divides by response and
    encodes width by pct, so the mark count is 2 x ages x 4 (cells and
    labels) and the align/affix constraints have one member per row/cell.
    pct is never 0, so width ratios are well defined.
    Returns (bytes, rows) with rows = [(age, response, pct)] in file order.
    """
    rows = [(f"age-{a:03d}", r, rng.randint(1, 60))
            for a in range(ages) for r in RESPONSES]
    lines = [",".join(columns)] + [f"{a},{r},{p}" for a, r, p in rows]
    return ("\n".join(lines) + "\n").encode(), rows


def balanced_tree(rng: random.Random, arity: int, depth: int):
    """Balanced tree with `id`/`branch` on nodes, as in gallery/data/tree.json.

    Chosen because stratify's cost depends on node count and depth; a
    balanced 4-ary tree of depth 5 gives 1,365 nodes at a fixed depth for
    every seed. The seed shuffles node and link order, which stratify must
    not depend on. Returns (bytes, node_count).
    """
    nodes = [{"id": "n0", "branch": "all"}]
    links = []
    frontier = [("n0", None)]
    for _ in range(depth):
        nxt = []
        for parent, branch in frontier:
            for c in range(arity):
                nid = f"n{len(nodes)}"
                b = branch or f"b{c}"
                nodes.append({"id": nid, "branch": b})
                links.append({"source": parent, "target": nid})
                nxt.append((nid, b))
        frontier = nxt
    rng.shuffle(nodes)
    rng.shuffle(links)
    return json.dumps({"nodes": nodes, "links": links}).encode(), len(nodes)


def random_network(rng: random.Random, nodes: int, links: int):
    """Random directed network: `id`/`circle` on nodes, `source`/`target`/`w`
    on links, as in gallery/data/net.json.

    Chosen because node_link repeats one node per id and one line per link,
    so link wiring and circle packing scale with these counts. Links are
    distinct and never loops. Returns (bytes, node_count, link_count).
    """
    node_docs = [{"id": f"v{i:03d}", "circle": rng.choice(("blue", "red", "green"))}
                 for i in range(nodes)]
    seen = set()
    link_docs = []
    while len(link_docs) < links:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        link_docs.append({"source": f"v{a:03d}", "target": f"v{b:03d}",
                          "w": rng.randint(1, 4)})
    return (json.dumps({"nodes": node_docs, "links": link_docs}).encode(),
            nodes, links)


def month_series(rng: random.Random, months: int):
    """Month-style series `month,quarter,value` as in gallery/data/months.csv.

    Chosen because line_chart densifies one vertex per distinct month and
    then pins the y scale to domain [0, 100], so values stay in that range.
    Month labels are `YYYY-MM`, which the importer reads as nominal text,
    like the gallery's `Jan`..`Dec`. Returns (bytes, values).
    """
    lines = ["month,quarter,value"]
    values = []
    for i in range(months):
        year, month = 1900 + i // 12, i % 12 + 1
        v = rng.randint(0, 100)
        values.append(v)
        lines.append(f"{year}-{month:02d},Q{(month - 1) // 3 + 1},{v}")
    return ("\n".join(lines) + "\n").encode(), values
