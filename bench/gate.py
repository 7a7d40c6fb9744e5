"""Correctness gate for one `cosetapprox experiment` operation.

It runs outside the timed interval and shares no code with the hit finder:
the sample points, moduli and radii are re-derived here from the config,
every hit is re-decided with `Fraction` arithmetic, and coset membership is
re-checked against explicit element sets built by `residue_group` (the
subgroup and its coset), not by the exponent test `find_hits` uses.
"""

from __future__ import annotations

import csv
import hashlib
import math
from fractions import Fraction

CSV_HEADER = ["sample_index", "k", "q", "p", "error_num", "error_den"]


def sample_point(seed: int, i: int, bits: int) -> Fraction:
    """The documented sampler: a `bits`-bit dyadic rational read from the
    SHA-256 stream of "seed:i:j", j = 0, 1, ...; 0 maps to 2^-bits."""
    out, need, j = 0, bits, 0
    while need > 0:
        block = int.from_bytes(hashlib.sha256(f"{seed}:{i}:{j}".encode()).digest(), "big")
        take = min(need, 256)
        out = (out << take) | (block >> (256 - take))
        need -= take
        j += 1
    return Fraction(out or 1, 1 << bits)


class HitChecker:
    """Re-decides the rows of a hits CSV for one experiment config.

    Membership answers are cached, so the checker is cheap after the first
    operation of a run.
    """

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.K = cfg["K"]
        self.d = cfg["d"]
        self.a = cfg["a"]
        self.mode = cfg["subgroup_mode"]
        if self.mode not in ("full", "dth-powers"):
            raise ValueError(f"the gate does not re-check subgroup_mode {self.mode!r}")
        qseq, aseq = cfg["q_sequence"], cfg["alpha_sequence"]
        if qseq["kind"] == "integers":
            self.qs = list(range(1, self.K + 1))
        elif qseq["kind"] == "explicit":
            self.qs = list(qseq["values"][: self.K])
        else:
            raise ValueError(f"the gate does not re-derive q_sequence {qseq['kind']!r}")
        c = Fraction(aseq["c"])
        if aseq["kind"] == "c/k":
            self.alpha = lambda k: c / k
        elif aseq["kind"] == "c*2^-k":
            self.alpha = lambda k: c / (1 << k)
        else:
            raise ValueError(f"the gate does not re-derive alpha_sequence {aseq['kind']!r}")
        # (q, p mod q) -> membership.  Only the answers are kept: the element
        # sets are dropped after use, so the gate adds little to peak RSS.
        self._member: dict[tuple[int, int], bool] = {}
        self._points: dict[int, Fraction] = {}

    def _resolve(self, pairs) -> None:
        from cosetapprox.residue_group import coset, dth_power_subgroup, full_subgroup, unit_group

        by_q: dict[int, list[int]] = {}
        for q, r in pairs:
            if (q, r) not in self._member:
                by_q.setdefault(q, []).append(r)
        for q, residues in by_q.items():
            g = unit_group(q)
            G = full_subgroup(g) if self.mode == "full" else dth_power_subgroup(g, self.d)
            elements = coset(self.a, G).element_set
            for r in residues:
                self._member[q, r] = r in elements

    def _point(self, i: int) -> Fraction:
        if i not in self._points:
            self._points[i] = sample_point(self.cfg["seed"], i, self.cfg["precision_bits"])
        return self._points[i]

    def problems(self, csv_path, total_hits: int) -> list[str]:
        """Every way the CSV disagrees with an exact re-decision (empty if none)."""
        out = []
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != CSV_HEADER:
            return [f"hits CSV header is {rows[:1]}"]
        rows = rows[1:]
        if len(rows) != total_hits:
            out.append(f"{len(rows)} CSV rows but total_hits = {total_hits}")
        last = (-1, 0)
        coset_rows = []
        for row in rows:
            i, k, q, p, en, ed = (int(v) for v in row)
            if not (0 <= i < self.cfg["samples"] and 1 <= k <= self.K) or (i, k) <= last:
                out.append(f"row {row}: index out of range or out of order")
                continue
            last = (i, k)
            if q != self.qs[k - 1]:
                out.append(f"row {row}: q_{k} is {self.qs[k - 1]}")
                continue
            Q = q**self.d
            err = abs(self._point(i) - Fraction(p, Q))
            if not err < self.alpha(k) / Q:
                out.append(f"row {row}: |x - p/q^d| >= alpha_k/q^d")
            if err != Fraction(en, ed):
                out.append(f"row {row}: error column is not |x - p/q^d|")
            if math.gcd(p, q) != 1:
                out.append(f"row {row}: gcd(p, q) != 1")
            if q > 1:
                coset_rows.append((q, p % q, row))
        self._resolve((q, r) for q, r, _ in coset_rows)
        out += [f"row {row}: p mod q is outside the coset" for q, r, row in coset_rows if not self._member[q, r]]
        return out
