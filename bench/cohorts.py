"""Seeded cohort generator: roster, two record exports and their ground truth.

Each workload is a ``Shape``. ``generate(shape, seed, out_dir)`` writes
``roster.csv``, ``records_scopus.csv`` and ``records_wos.csv`` in the
layout ``scripts/run_full_analysis.py`` expects, plus ``truth.json``, and
returns the same ground truth as a ``Truth``. The same shape and seed give
the same bytes.

Run as a script to write one cohort:

    python3 bench/cohorts.py --workload cohort-wide --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

DBS = ("scopus", "wos")
GLOBAL_SCOPE = "all"

# Reasons the ingester gives for the rows planted below; each database gets
# at least one row of each.
PLANTED_REASONS = ("missing doi", "malformed doi", "negative citations", "source mismatch")
DUPLICATE_REASON = "duplicate doi"
REJECT_SHARE = 0.002  # of the rows, planted bad and spread over PLANTED_REASONS
OVERLAP = 0.7  # chance that a paper of one database is also in the other


@dataclass(frozen=True)
class Shape:
    """How one workload's cohort is drawn.

    ``papers_mean`` is the mean of an exponential paper count per author and
    database (drawn stratified, see ``generate``); citations are Pareto(``alpha``) draws capped at ``cap``.
    ``duplicate_share`` of the accepted rows is repeated. ``doi_forms`` gives
    the weight of each export form of a DOI.
    """

    authors: int
    disciplines: int
    papers_mean: float
    alpha: float
    cap: int
    duplicate_share: float
    doi_forms: tuple[tuple[str, float], ...]


BARE = (("bare", 1.0),)
MIXED = (("url_upper", 0.3), ("doi_prefix", 0.2), ("upper", 0.2), ("bare", 0.3))

WORKLOADS: dict[str, Shape] = {
    "cohort-wide": Shape(
        authors=600, disciplines=20, papers_mean=30, alpha=1.2, cap=10**5,
        duplicate_share=0.01, doi_forms=BARE,
    ),
    "cohort-deep": Shape(
        authors=30, disciplines=2, papers_mean=600, alpha=1.1, cap=3 * 10**5,
        duplicate_share=0.10, doi_forms=MIXED,
    ),
    "cohort-sparse": Shape(
        authors=3000, disciplines=50, papers_mean=3, alpha=1.2, cap=10**5,
        duplicate_share=0.01, doi_forms=BARE,
    ),
}


@dataclass
class Truth:
    """What a correct full report run must report for one generated cohort.

    ``counts[author][db]`` maps each canonical DOI to its deduplicated
    (maximum) citation count; ``scope_dois[scope][db]`` is the scope's DOI
    set; ``rejects[db]`` counts rejected rows by reason, duplicates
    included; ``rows[db]`` is the export's data-row count.
    """

    disciplines: dict[str, str]
    counts: dict[str, dict[str, dict[str, int]]]
    scope_dois: dict[str, dict[str, set[str]]]
    rejects: dict[str, Counter]
    rows: dict[str, int]

    @property
    def total_rows(self) -> int:
        return sum(self.rows.values())


def _rng(shape_text: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{shape_text}/{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _export_form(doi: str, form: str) -> str:
    if form == "url_upper":
        return "https://doi.org/" + doi.upper()
    if form == "doi_prefix":
        return "doi:" + doi
    if form == "upper":
        return doi.upper()
    return doi


def _citations(rng: random.Random, shape: Shape) -> int:
    return min(shape.cap, int(rng.paretovariate(shape.alpha)) - 1)


def generate(shape: Shape, seed: int, out_dir: Path) -> Truth:
    """Write one cohort to ``out_dir`` and return its ground truth."""
    rng = _rng(repr(shape), seed)
    forms = [f for f, _ in shape.doi_forms]
    weights = [w for _, w in shape.doi_forms]
    tags = {db: i for i, db in enumerate(DBS)}

    roster = []
    blocks: dict[str, list[list[tuple]]] = {db: [] for db in DBS}
    truth = Truth(
        disciplines={},
        counts={},
        scope_dois={},
        rejects={db: Counter() for db in DBS},
        rows={db: 0 for db in DBS},
    )
    # Paper counts are exponential quantiles at one stratified point per
    # author, so the shape is exponential but the cohort's total row count,
    # and with it the run time, hardly depends on the seed.
    strata = list(range(shape.authors))
    rng.shuffle(strata)
    for idx in range(shape.authors):
        key = f"a{idx:06d}"
        discipline = f"field_{idx % shape.disciplines:02d}"
        roster.append(
            (key, f"0000-0001-{idx // 10000:04d}-{idx % 10000:04d}", f"R-{idx}-2020",
             f"5{idx:09d}", discipline, f"Author {idx}")
        )
        truth.disciplines[key] = discipline

        u = (strata[idx] + 0.5) / shape.authors
        n_scopus = max(1, round(-shape.papers_mean * math.log(1 - u)))
        n_wos = max(1, round(n_scopus * rng.uniform(0.9, 1.1)))
        scopus = {}
        for j in range(n_scopus):
            scopus[f"10.{rng.randint(1000, 99999)}/{key}.p{j}"] = _citations(rng, shape)
        wos = {}
        shared = list(scopus.items())[:n_wos]
        for j, (doi, cites) in enumerate(shared):
            if rng.random() < OVERLAP:
                wos[doi] = min(shape.cap, int(cites * rng.uniform(0.6, 1.1)))
            else:
                wos[f"10.{rng.randint(1000, 99999)}/{key}.w{j}"] = _citations(rng, shape)
        for j in range(len(shared), n_wos):
            wos[f"10.{rng.randint(1000, 99999)}/{key}.w{j}"] = _citations(rng, shape)

        truth.counts[key] = {}
        for db, papers in (("scopus", scopus), ("wos", wos)):
            rows = []
            for doi, cites in papers.items():
                rows.append((key, _export_form(doi, rng.choices(forms, weights)[0]), cites, db))
                if rng.random() < shape.duplicate_share:
                    dup = rng.randint(0, cites + 3)
                    papers[doi] = max(cites, dup)
                    rows.append((key, _export_form(doi, rng.choices(forms, weights)[0]), dup, db))
                    truth.rejects[db][DUPLICATE_REASON] += 1
            rng.shuffle(rows)
            blocks[db].append(rows)
            truth.counts[key][db] = papers

    for db in DBS:
        accepted = sum(len(block) for block in blocks[db])
        per_reason = max(1, round(accepted * REJECT_SHARE / len(PLANTED_REASONS)))
        for reason in PLANTED_REASONS:
            for n in range(per_reason):
                block = blocks[db][rng.randrange(shape.authors)]
                key = block[0][0]
                fake = f"10.9{tags[db]}{n:04d}/planted.{reason[:3]}"
                bad = {
                    "missing doi": (key, "", rng.randint(0, 50), db),
                    "malformed doi": (key, f"not-a-doi/{n}", rng.randint(0, 50), db),
                    "negative citations": (key, fake, -rng.randint(1, 50), db),
                    "source mismatch": (key, fake, rng.randint(0, 50), DBS[1 - tags[db]]),
                }[reason]
                block.insert(rng.randint(0, len(block)), bad)
                truth.rejects[db][reason] += 1

    scopes = sorted(set(truth.disciplines.values())) + [GLOBAL_SCOPE]
    truth.scope_dois = {scope: {db: set() for db in DBS} for scope in scopes}
    for key, per_db in truth.counts.items():
        for db in DBS:
            truth.scope_dois[truth.disciplines[key]][db].update(per_db[db])
            truth.scope_dois[GLOBAL_SCOPE][db].update(per_db[db])

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "roster.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["author_key", "orcid", "researcher_id", "scopus_id", "discipline", "display_name"]
        )
        writer.writerows(roster)
    for db in DBS:
        with open(out_dir / f"records_{db}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["author_key", "doi", "citations", "source"])
            for block in blocks[db]:
                writer.writerows(block)
                truth.rows[db] += len(block)
    _write_truth(truth, out_dir / "truth.json")
    return truth


def _write_truth(truth: Truth, path: Path) -> None:
    payload = {
        "rows": truth.rows,
        "rejects": {db: dict(sorted(c.items())) for db, c in truth.rejects.items()},
        "disciplines": truth.disciplines,
        "counts": {
            key: {db: sorted(papers.values(), reverse=True) for db, papers in per_db.items()}
            for key, per_db in truth.counts.items()
        },
        "scope_dois": {
            scope: {db: sorted(dois) for db, dois in per_db.items()}
            for scope, per_db in truth.scope_dois.items()
        },
    }
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    t = generate(WORKLOADS[args.workload], args.seed, args.out)
    print(f"rows {t.rows}  rejects {json.dumps({db: dict(c) for db, c in t.rejects.items()})}")
