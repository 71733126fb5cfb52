"""Seeded generator for the benchmark's synthetic collections.

For one workload and seed it writes the files ``srquery.collections`` loads
(``topics.jsonl``, ``qrels.txt`` and, for local execution, ``corpus.jsonl``
and ``mesh.tsv``) into ``<out>/inputs``, and the stubs' answer plan into
``<out>/plan.json``.  The program under test is only ever given ``inputs``.

    python3 perfbench/gen.py --workload sweep --seed 1 --out work/sweep-1

The same seed always produces byte-identical files.  Fault shares are drawn
as exact counts (a fixed number of topics per fault kind), so the share of
failed operations does not move with the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
from pathlib import Path

# Per-workload sizes.  The sweep is the paper's grid on a small corpus (many
# short queries, many qrels lookups); expert is few long expert queries on a
# larger corpus with long abstracts (index build and big postings); network
# executes on the Entrez stub, and its corpus serves only the traced run's
# single-shape retrieval probes.
WORKLOADS = {
    "sweep": dict(
        topics=10, docs=1200, vocab=2500, title_len=12, abstract_len=60,
        descriptors=800, mesh_per_doc=5, judged=400, relevant=(18, 24),
        original_terms=4, bad_originals=0,
    ),
    "expert": dict(
        topics=10, docs=2500, vocab=20000, title_len=12, abstract_len=200,
        descriptors=3000, mesh_per_doc=8, judged=600, relevant=(24, 32),
        original_terms=15, bad_originals=2,
    ),
    "network": dict(
        topics=24, docs=1500, vocab=6000, title_len=12, abstract_len=60,
        descriptors=800, mesh_per_doc=5, judged=500, relevant=(18, 24),
        original_terms=5, bad_originals=0,
    ),
}

# Methods of the sweep grid, in the order the stages run them.  "q5-re" is
# the method the second pass adds over the populated log and cache.
SWEEP_METHODS = ("q1", "q2", "q3", "q4-hqe", "q4-re", "q5-hqe", "q6", "q7", "guided", "q5-re")

PUB_TYPES = (
    ("Journal Article", 60), ("Randomized Controlled Trial", 8), ("Review", 8),
    ("Comparative Study", 6), ("Clinical Trial", 5), ("Observational Study", 4),
    ("Meta-Analysis", 3), ("Case Reports", 3), ("Editorial", 2), ("Letter", 1),
)
RESERVED = {"and", "or", "not"}
CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"


def pseudo_words(rng: random.Random, n: int, syllables=(2, 4)) -> list[str]:
    """``n`` distinct pronounceable lowercase words."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        k = rng.randint(*syllables)
        w = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(k))
        if rng.random() < 0.3:
            w += rng.choice(CONSONANTS)
        if w not in seen and w not in RESERVED:
            seen.add(w)
            words.append(w)
    return words


def zipf_cum_weights(n: int, s: float = 1.0) -> list[float]:
    total, out = 0.0, []
    for i in range(n):
        total += 1.0 / (i + 1) ** s
        out.append(total)
    return out


def make_mesh(rng: random.Random, n: int) -> list[dict]:
    """A random recursive tree: each descriptor hangs under a uniformly
    chosen earlier one, which gives depth ~log(n), as in MeSH."""
    name_words = [w.capitalize() for w in pseudo_words(rng, 2 * n, syllables=(2, 3))]
    rng.shuffle(name_words)
    roots = 16
    descriptors: list[dict] = []
    names: set[str] = set()
    for i in range(n):
        while True:
            a, b = rng.sample(name_words, 2)
            name = f"{a}, {b}" if rng.random() < 0.2 else f"{a} {b}"
            if name.lower() not in names:
                names.add(name.lower())
                break
        if i < roots:
            trees = [f"{'ABCDEFGHIJKLMNOP'[i]}{i + 1:02d}"]
            parent = None
        else:
            parent = rng.randrange(i)
            trees = [f"{descriptors[parent]['trees'][0]}.{rng.randrange(1000):03d}"]
            if rng.random() < 0.1:
                other = rng.randrange(i)
                trees.append(f"{descriptors[other]['trees'][0]}.{rng.randrange(1000):03d}")
        descriptors.append({"ui": f"D{100000 + i}", "name": name, "trees": trees,
                            "parent": parent})
    # Tree numbers must be unique for explosion to be well defined.
    seen_trees: set[str] = set()
    for d in descriptors:
        fixed = []
        for t in d["trees"]:
            while t in seen_trees:
                t = t[:-3] + f"{rng.randrange(1000):03d}"
            seen_trees.add(t)
            fixed.append(t)
        d["trees"] = fixed
    return descriptors


def descendants_of(descriptors: list[dict]) -> list[list[int]]:
    """Each descriptor's descendants (by the primary tree), itself excluded."""
    children: list[list[int]] = [[] for _ in descriptors]
    for i in range(len(descriptors) - 1, -1, -1):
        parent = descriptors[i]["parent"]
        if parent is not None:
            children[parent] += [i] + children[i]
    return children


def make_topics(rng, spec, words, descriptors):
    """Three concepts per topic, each seven mid-frequency words, two phrases
    and one MeSH descriptor with a mid-sized subtree.  Bounding word
    frequency and subtree size keeps per-topic cost alike, so that a run's
    cost does not swing with the seed."""
    children = descendants_of(descriptors)
    mid = [i for i, c in enumerate(children) if 4 <= len(c) <= 40] or list(range(len(descriptors)))
    band = words[300:700]
    topics = []
    for t in range(spec["topics"]):
        concepts = []
        for _ in range(3):
            cw = rng.sample(band, 7)
            phrases = [(cw[0], cw[1]), (cw[2], cw[3])]
            concepts.append({"words": cw, "phrases": phrases, "mesh": rng.choice(mid)})
        title_words = [c["words"][4] for c in concepts] + rng.sample(band, 3)
        rng.shuffle(title_words)
        topics.append({
            "topic_id": f"CD{800000 + t:06d}",
            "title": " ".join(title_words).capitalize() + f" in review {t + 1}",
            "concepts": concepts,
            "anchor": f"nt{t + 1:03d}x",
        })
    return topics, children


def make_corpus(rng, spec, words, descriptors, topics, children):
    cw = zipf_cum_weights(len(words))
    # MeSH tags follow their own Zipf law over a shuffled descriptor order.
    order = list(range(len(descriptors)))
    rng.shuffle(order)
    mw = zipf_cum_weights(len(order), 0.8)
    pt_names = [p for p, _ in PUB_TYPES[1:]]
    pt_weights = [w for _, w in PUB_TYPES[1:]]
    docs = []
    for i in range(spec["docs"]):
        title = rng.choices(words, cum_weights=cw, k=spec["title_len"])
        abstract = rng.choices(words, cum_weights=cw,
                               k=max(1, int(rng.gauss(spec["abstract_len"], spec["abstract_len"] / 6))))
        mesh = sorted(set(rng.choices(order, cum_weights=mw, k=spec["mesh_per_doc"])))
        pts = ["Journal Article"]
        if rng.random() < 0.5:
            pts.append(rng.choices(pt_names, weights=pt_weights)[0])
        docs.append({"pmid": str(20_000_000 + i * 7 + rng.randrange(7)),
                     "title": title, "abstract": abstract, "mesh": mesh, "pub_types": pts})

    relevant: dict[str, list[int]] = {}
    related: dict[str, list[int]] = {}
    for topic in topics:
        n_rel = rng.randint(*spec["relevant"])
        picked = rng.sample(range(len(docs)), n_rel * 4)
        relevant[topic["topic_id"]] = picked[:n_rel]
        related[topic["topic_id"]] = picked[n_rel:]
        for j, di in enumerate(picked):
            doc = docs[di]
            concepts = topic["concepts"] if j < n_rel else rng.sample(topic["concepts"], rng.randint(1, 2))
            for c in concepts:
                doc["title"][rng.randrange(len(doc["title"]))] = rng.choice(c["words"])
                for w in rng.sample(c["words"], 2):
                    doc["abstract"][rng.randrange(len(doc["abstract"]))] = w
                if rng.random() < 0.5 and len(doc["abstract"]) > 3:
                    a, b = rng.choice(c["phrases"])
                    k = rng.randrange(len(doc["abstract"]) - 1)
                    doc["abstract"][k:k + 2] = [a, b]
                sub = [c["mesh"]] + children[c["mesh"]]
                doc["mesh"] = sorted(set(doc["mesh"]) | {rng.choice(sub)})
    return docs, relevant, related


# Term kinds of one OR-group, in the order a group of n terms takes them, so
# every group of a given size has the same mix.
KIND_CYCLE = ("tiab", "trunc", "mesh", "phrase", "tiab", "noexp", "ti", "tiab", "trunc",
              "phrase", "tiab", "mesh", "ti", "tiab", "trunc")


def build_query(rng, concepts, terms: int, tag: str = "tiab", mesh: bool = True,
                invalid_mesh: float = 0.0, name_pool=()) -> str:
    """Boolean query in the CLEF experts' style: one OR-group per concept
    mixing [tiab] words, truncation, quoted phrases, and exploded and noexp
    MeSH, the groups ANDed.  ``invalid_mesh`` is the share of MeSH terms
    that name a descriptor which does not exist."""
    groups = []
    for c in concepts:
        kinds = [k for k in KIND_CYCLE if mesh or k not in ("mesh", "noexp")][:terms]
        words = rng.sample(c["words"], len(c["words"]))
        items = []
        for i, kind in enumerate(kinds):
            w = words[i % len(words)]
            if kind in ("tiab", "ti"):
                items.append(f"{w}[{tag if kind == 'tiab' else 'ti'}]")
            elif kind == "trunc":
                items.append(f"{w[:5]}*[{tag}]")
            elif kind == "phrase":
                a, b = c["phrases"][i % 2]
                items.append(f'"{a} {b}"[{tag}]')
            else:
                name = c["mesh"]
                if name_pool and rng.random() < invalid_mesh:
                    name = " ".join(rng.sample(name_pool, 2)).title()
                items.append(f"{name}[{'MeSH' if kind == 'mesh' else 'mesh:noexp'}]")
        items = list(dict.fromkeys(items))
        groups.append("(" + " OR ".join(items) + ")" if len(items) > 1 else items[0])
    return "(" + " AND ".join(groups) + ")" if len(groups) > 1 else groups[0]


def make_qrels(rng, spec, docs, topics, relevant, related) -> list[tuple[str, str, int]]:
    rows = []
    for topic in topics:
        tid = topic["topic_id"]
        judged: dict[str, int] = {}
        for di in relevant[tid]:
            judged[docs[di]["pmid"]] = 2 if rng.random() < 0.2 else 1
        for di in related[tid]:
            judged.setdefault(docs[di]["pmid"], 0)
        # Some judged documents lie outside the corpus, as in CLEF's
        # PubMed-wide pools.
        while len(judged) < spec["judged"]:
            if rng.random() < 0.9:
                judged.setdefault(docs[rng.randrange(len(docs))]["pmid"], 0)
            else:
                judged.setdefault(str(40_000_000 + rng.randrange(10_000_000)), 0)
        rows.extend((tid, pmid, grade) for pmid, grade in judged.items())
    return rows


def write_inputs(out: Path, docs, descriptors, topics_rows, qrels_rows) -> None:
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    with open(inputs / "topics.jsonl", "w", encoding="utf-8") as f:
        for row in topics_rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    with open(inputs / "qrels.txt", "w", encoding="utf-8") as f:
        for tid, pmid, grade in qrels_rows:
            f.write(f"{tid} 0 {pmid} {grade}\n")
    if docs is not None:
        write_corpus(inputs / "corpus.jsonl", docs, descriptors)
        write_mesh(inputs / "mesh.tsv", descriptors)


def write_corpus(path: Path, docs, descriptors) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for d in docs:
            f.write(json.dumps({
                "pmid": d["pmid"], "title": " ".join(d["title"]).capitalize(),
                "abstract": " ".join(d["abstract"]).capitalize() + ".",
                "mesh": [descriptors[m]["name"] for m in d["mesh"]],
                "pub_types": d["pub_types"],
            }, sort_keys=True) + "\n")


def write_mesh(path: Path, descriptors) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for d in descriptors:
            f.write(f"{d['ui']}\t{d['name']}\t{';'.join(d['trees'])}\n")


def probe_queries(rng, topics, descriptors, per_shape: int = 12) -> dict[str, list[str]]:
    """Single-shape query sets for the traced run's retrieval probes."""
    shapes: dict[str, list[str]] = {k: [] for k in
                                    ("term", "phrase", "truncation", "mesh_exploded",
                                     "mesh_noexp", "pub_type")}
    pts = [p for p, _ in PUB_TYPES]
    for i in range(per_shape):
        c = rng.choice(rng.choice(topics)["concepts"])
        w = rng.choice([w for w in c["words"] if len(w) >= 6] or c["words"])
        a, b = rng.choice(c["phrases"])
        shapes["term"].append(f"{c['words'][0]}[tiab] OR {c['words'][1]}[tiab]")
        shapes["phrase"].append(f'"{a} {b}"[tiab]')
        shapes["truncation"].append(f"{w[:4]}*[tiab]")
        name = descriptors[c["mesh"]]["name"]
        shapes["mesh_exploded"].append(f"{name}[MeSH]")
        shapes["mesh_noexp"].append(f"{name}[mesh:noexp]")
        shapes["pub_type"].append(f"{pts[i % len(pts)]}[pt] AND {c['words'][2]}[tiab]")
    return shapes


def generate(workload: str, seed: int, out: Path, docs_override: int | None = None) -> None:
    spec = dict(WORKLOADS[workload])
    if docs_override:
        spec["docs"] = docs_override
    rng = random.Random(f"{workload}:{seed}")
    words = pseudo_words(rng, spec["vocab"])
    descriptors = make_mesh(rng, spec["descriptors"])
    topics, children = make_topics(rng, spec, words, descriptors)
    docs, relevant, related = make_corpus(rng, spec, words, descriptors, topics, children)
    qrels_rows = make_qrels(rng, spec, docs, topics, relevant, related)
    name_pool = pseudo_words(random.Random(f"invalid-mesh:{seed}"), 200, syllables=(2, 3))

    tids = [t["topic_id"] for t in topics]
    bad = set(rng.sample(tids, spec["bad_originals"]))
    concepts = {t["topic_id"]: [{"words": c["words"], "phrases": c["phrases"],
                                 "mesh": descriptors[c["mesh"]]["name"]}
                                for c in t["concepts"]] for t in topics}
    topic_rows = []
    for topic in topics:
        query = build_query(rng, concepts[topic["topic_id"]], spec["original_terms"])
        if workload == "network":
            # The anchor word ties every query of a topic to its Entrez plan.
            query = f"({topic['anchor']}[tiab] OR {query})"
        if workload == "expert":
            query = f"({query} NOT (Editorial[pt] OR Letter[pt]))"
        if topic["topic_id"] in bad:
            query = query[:-1]  # an unbalanced parenthesis, as in some CLEF queries
        row = {"topic_id": topic["topic_id"], "title": topic["title"],
               "original_query": query, "collection": "CLEF"}
        seed_doc = docs[relevant[topic["topic_id"]][0]]
        row["seed_studies"] = [{
            "pmid": seed_doc["pmid"],
            "title": " ".join(seed_doc["title"]).capitalize(),
            "abstract": " ".join(seed_doc["abstract"]).capitalize() + ".",
        }]
        topic_rows.append(row)

    plan: dict = {
        "workload": workload, "seed": seed,
        "topics": {t["topic_id"]: {
            "title": row["title"], "anchor": t["anchor"],
            "seed_title": row["seed_studies"][0]["title"],
            "concepts": concepts[t["topic_id"]],
        } for t, row in zip(topics, topic_rows)},
        "invalid_mesh_names": name_pool,
        "bad_originals": sorted(bad),
        "probes": probe_queries(rng, topics, descriptors),
    }
    if workload == "sweep":
        # Each method fails on one of three "hard" topics, in turn.  The
        # other topics succeed under every method, so the significance tests
        # have paired topics; and the two q4 methods never fail on the same
        # topic, which would also fail q7 (it seeds from q4) and make the
        # failure count depend on the seed.
        hard = rng.sample(tids, 3)
        plan["doomed"] = {m: [hard[i % 3]] for i, m in enumerate(SWEEP_METHODS)}
    if workload == "network":
        plan.update(network_plan(rng, tids))
        # Network topics are judged against the Entrez stub's pmid space.
        qrels_rows = network_qrels(rng, spec, topics, plan)
    write_inputs(out, docs if workload != "network" else None, descriptors, topic_rows, qrels_rows)
    if workload == "network":
        # The probe corpus is for the traced run only; the pipeline runs on Entrez.
        probe = out / "probe"
        probe.mkdir(parents=True, exist_ok=True)
        write_corpus(probe / "corpus.jsonl", docs, descriptors)
        write_mesh(probe / "mesh.tsv", descriptors)
    with open(out / "plan.json", "w", encoding="utf-8") as f:
        json.dump(plan, f, sort_keys=True)


# ---------------------------------------------------------------------------
# Network: the Entrez stub's truth and fault plan
# ---------------------------------------------------------------------------

def network_plan(rng, tids) -> dict:
    """Disjoint topic sets per fault kind, and each topic's esearch count
    bucket.  Counts are heavy-tailed; the "cap" bucket exceeds the 10,000
    records PubMed will page through."""
    # The body without "choices" goes to the last topic: the stage raises
    # when it collects that result, after every other topic's requests were
    # sent, so the number of chat requests does not depend on thread timing.
    pool = list(tids[:-1])
    rng.shuffle(pool)
    faults = {"no_choices": [tids[-1]]}
    for kind, k in (("chat_429", 2), ("chat_503", 2), ("prose_first", 3),
                    ("prose_always", 1), ("esearch_503", 2), ("esearch_429", 1)):
        faults[kind] = sorted(pool[:k])
        pool = pool[k:]
    # Topics whose esearch already fails get the small bucket, so the cap
    # and an HTTP error never land on one query and merge two failures.
    esearch_faults = set(faults["esearch_503"]) | set(faults["esearch_429"])
    order = [t for t in tids if t not in esearch_faults]
    rng.shuffle(order)
    buckets = {tid: "small" for tid in tids}
    for i, tid in enumerate(order[:9]):
        buckets[tid] = "cap" if i < 3 else "paged"
    # Each bucket's topics take evenly spaced points of its count range, so
    # the total volume of ids does not move with the seed.
    position = {}
    for bucket in BUCKET_RANGES:
        members = [t for t in tids if buckets[t] == bucket]
        rng.shuffle(members)
        position.update({t: (k + 0.5) / len(members) for k, t in enumerate(members)})
    return {"faults": faults, "buckets": buckets, "position": position,
            "pmid_base": {tid: rng.randrange(20_000_000) for tid in tids}}


BUCKET_RANGES = {"small": (200, 4000), "paged": (5001, 9500), "cap": (12000, 60000)}
PMID_STRIDE = 7919  # coprime with the 20M pmid space, so ids never repeat


def stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def truth_count(plan: dict, tid: str, term: str) -> int:
    """Log-uniform over the topic's bucket; the term moves it by up to 1%."""
    lo, hi = BUCKET_RANGES[plan["buckets"][tid]]
    jitter = (stable_hash("count:" + term) % 1000 / 1000 - 0.5) * 0.02
    u = min(1.0, max(0.0, plan["position"][tid] + jitter))
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def truth_offset(term: str) -> int:
    return stable_hash("offset:" + term) % 50


def topic_pmid(plan: dict, tid: str, i: int) -> str:
    return str(10_000_000 + (plan["pmid_base"][tid] + i * PMID_STRIDE) % 20_000_000)


def truth_pmids(plan: dict, tid: str, term: str, start: int = 0, stop: int | None = None) -> list[str]:
    """The stub's answer for ``term``: a run of the topic's pmid sequence."""
    count = truth_count(plan, tid, term)
    off = truth_offset(term)
    stop = count if stop is None else min(stop, count)
    return [topic_pmid(plan, tid, off + i) for i in range(start, stop)]


def network_qrels(rng, spec, topics, plan) -> list[tuple[str, str, int]]:
    rows = []
    for topic in topics:
        tid = topic["topic_id"]
        n_rel = rng.randint(*spec["relevant"])
        idx = rng.sample(range(200), n_rel)
        judged = {topic_pmid(plan, tid, i): (2 if rng.random() < 0.2 else 1) for i in idx}
        while len(judged) < spec["judged"]:
            if rng.random() < 0.7:
                judged.setdefault(topic_pmid(plan, tid, rng.randrange(5000)), 0)
            else:
                judged.setdefault(str(40_000_000 + rng.randrange(10_000_000)), 0)
        rows.extend((tid, pmid, grade) for pmid, grade in judged.items())
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--docs", type=int, default=None, help="override the corpus size")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.docs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
