"""Seeded inputs and the correctness oracle.

Everything the program receives is generated here from ``--seed``: the
LUBM graph (through ``repro.data``, relabeled and written as N-Triples),
the assess round orders, and the serve request streams.  The oracle answers every
query independently of the program's Spark, optimizer and service
layers: it reads the N-Triples file with its own line reader and
evaluates basic graph patterns with nested index loops over plain
tuples of N3 strings.
"""

from __future__ import annotations

import bisect
import glob
import hashlib
import json
import os
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

LUBM_NS = "http://repro.example.org/lubm#"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"

Triple = Tuple[str, str, str]  # N3 strings
Pattern = Tuple[str, str, str]  # each "?var" or an N3 constant


def lubm(local: str) -> str:
    return "<%s%s>" % (LUBM_NS, local)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_lines(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


#: Generator seed of the LUBM structure (who takes, teaches and advises
#: what).  At one university that structure alone moves the graph
#: engines' times by about 15% from one generator seed to the next, more
#: than a regression bound can absorb, so ``--seed`` varies the graph
#: only up to isomorphism (see :func:`write_lubm`).
LUBM_STRUCTURE_SEED = 42
_LUBM_ENTITY = re.compile(
    r"<%s(University|Department|Course|Professor|Student|Publication)([0-9_]+)>"
    % re.escape(LUBM_NS)
)


def relabel_lines(lines: Sequence[str], seed: int) -> List[str]:
    """N-Triples *lines* with the LUBM entities of each kind renamed by a
    permutation seeded by *seed*, in a seeded order."""
    rng = random.Random("lubm-%d" % seed)
    labels: Dict[str, Set[str]] = defaultdict(set)
    for line in lines:
        for kind, number in _LUBM_ENTITY.findall(line):
            labels[kind].add(number)
    rename: Dict[Tuple[str, str], str] = {}
    for kind in sorted(labels):
        old = sorted(labels[kind])
        new = list(old)
        rng.shuffle(new)
        rename.update(((kind, a), b) for a, b in zip(old, new))
    out = [
        _LUBM_ENTITY.sub(
            lambda m: "<%s%s%s>" % (LUBM_NS, m.group(1), rename[m.group(1), m.group(2)]),
            line,
        )
        for line in lines
    ]
    rng.shuffle(out)
    return out


def write_lubm(path: str, scale: int, seed: int) -> str:
    """Write LUBM at *scale* universities, relabeled by *seed*; return its
    SHA-256.

    The graph is :data:`LUBM_STRUCTURE_SEED`'s, with the entities of each
    kind renamed by a seeded permutation and the lines in a seeded order
    (:func:`relabel_lines`): the same structure, different IRIs, so
    different hashing, partition placement and dictionary codes.
    """
    from repro.data.lubm import LubmGenerator

    graph = LubmGenerator(num_universities=scale, seed=LUBM_STRUCTURE_SEED).generate()
    lines = relabel_lines(sorted(triple.n3() for triple in graph), seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return sha256_file(path)


_NT_LINE = re.compile(r"^(<[^>]*>) (<[^>]*>) (.+) \.$")


def read_ntriples(path: str) -> List[Triple]:
    """The oracle's own reader for the generated files (IRI subjects and
    predicates, objects kept as their N3 text)."""
    triples = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            match = _NT_LINE.match(line)
            if match is None:
                raise ValueError("line %d: unexpected N-Triples %r" % (number, line))
            triples.append(match.groups())
    return triples


# ----------------------------------------------------------------------
# Queries as data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BgpQuery:
    """A SELECT over one basic graph pattern (the corpus's fragment)."""

    variables: Tuple[str, ...]  # projected names, without "?"
    patterns: Tuple[Pattern, ...]

    def render(self) -> str:
        body = "\n".join(
            "  %s %s %s ." % pattern for pattern in self.patterns
        )
        return "SELECT %s WHERE {\n%s\n}\n" % (
            " ".join("?" + v for v in self.variables),
            body,
        )


_PREFIX = re.compile(r"PREFIX\s+(\w*):\s*<([^>]*)>", re.IGNORECASE)
_SELECT = re.compile(
    r"SELECT\s+((?:\?\w+\s*)+)WHERE\s*\{(.*)\}\s*$", re.IGNORECASE | re.DOTALL
)
_TERM = re.compile(r"\?\w+|<[^>]*>|\w*:\w+")


def parse_bgp_query(text: str) -> BgpQuery:
    """Parse the shape corpus's fragment: PREFIX lines, then
    ``SELECT ?v ... WHERE { s p o . ... }`` with no other operators."""
    lines = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
    prefixes = dict(_PREFIX.findall("\n".join(lines)))
    rest = _PREFIX.sub("", "\n".join(lines)).strip()
    match = _SELECT.match(rest)
    if match is None:
        raise ValueError("not a plain SELECT over one BGP: %r" % text)
    variables = tuple(v[1:] for v in match.group(1).split())
    patterns = []
    for chunk in match.group(2).split(" ."):
        chunk = chunk.strip().rstrip(".").strip()
        if not chunk:
            continue
        terms = _TERM.findall(chunk)
        if len(terms) != 3 or "".join(terms) != "".join(chunk.split()):
            raise ValueError("unsupported triple pattern %r" % chunk)
        expanded = []
        for term in terms:
            if term.startswith(("?", "<")):
                expanded.append(term)
            else:
                prefix, local = term.split(":", 1)
                expanded.append("<%s%s>" % (prefixes[prefix], local))
        patterns.append(tuple(expanded))
    return BgpQuery(variables, tuple(patterns))


def bindings_payload(variables: Sequence[str], rows: List[List[str]]) -> str:
    """The wire form of an unordered SELECT answer (protocol version 1):
    sorted rows of N3 strings, canonical JSON."""
    return json.dumps(
        {"ordered": False, "rows": rows, "type": "bindings", "vars": list(variables)},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Oracle:
    """Nested-index-loop BGP evaluation over a set of N3 triples."""

    def __init__(self, triples) -> None:
        self._by_ps: Dict[Tuple[str, str], List[str]] = defaultdict(list)
        self._by_po: Dict[Tuple[str, str], List[str]] = defaultdict(list)
        self._by_p: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
        for s, p, o in triples:
            self._by_ps[(p, s)].append(o)
            self._by_po[(p, o)].append(s)
            self._by_p[p].append((s, o))

    def _matches(self, pattern: Pattern, row: Dict[str, str]):
        s, p, o = (row.get(t[1:], t) if t.startswith("?") else t for t in pattern)
        if p.startswith("?"):
            raise ValueError("the oracle needs constant predicates")
        s_var, o_var = s.startswith("?"), o.startswith("?")
        if not s_var and not o_var:
            if o in self._by_ps.get((p, s), ()):
                yield row
        elif not s_var:
            for obj in self._by_ps.get((p, s), ()):
                yield dict(row, **{o[1:]: obj})
        elif not o_var:
            for subj in self._by_po.get((p, o), ()):
                yield dict(row, **{s[1:]: subj})
        else:
            for subj, obj in self._by_p.get(p, ()):
                if s == o and subj != obj:
                    continue
                yield dict(row, **{s[1:]: subj, o[1:]: obj})

    def select(self, query: BgpQuery) -> List[List[str]]:
        """Sorted projected rows (bag semantics, unbound renders as "")."""
        rows: List[Dict[str, str]] = [{}]
        pending = list(query.patterns)
        bound: Set[str] = set()
        while pending:
            # Most constrained pattern next: constants and bound variables.
            def freedom(pattern: Pattern) -> int:
                return sum(
                    1 for t in pattern if t.startswith("?") and t[1:] not in bound
                )

            pattern = min(pending, key=freedom)
            pending.remove(pattern)
            rows = [out for row in rows for out in self._matches(pattern, row)]
            bound.update(t[1:] for t in pattern if t.startswith("?"))
        result = [[row.get(v, "") for v in query.variables] for row in rows]
        result.sort()
        return result


# ----------------------------------------------------------------------
# Assess workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusQuery:
    name: str  # e.g. "star/student_profile"
    text: str
    bgp: BgpQuery


def load_corpus(root: str) -> List[CorpusQuery]:
    paths = sorted(glob.glob(os.path.join(root, "examples", "queries", "shapes", "*", "*.rq")))
    if not paths:
        raise FileNotFoundError("no shape corpus under %s" % root)
    corpus = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        name = "%s/%s" % (
            os.path.basename(os.path.dirname(path)),
            os.path.splitext(os.path.basename(path))[0],
        )
        corpus.append(CorpusQuery(name, text, parse_bgp_query(text)))
    return corpus


def assess_rounds(
    engines: Sequence[str], corpus: Sequence[CorpusQuery], seed: int
) -> Iterator[List[Tuple[str, CorpusQuery]]]:
    """Endless rounds; each runs every (engine, query) pair once, in a
    seeded order."""
    rng = random.Random("assess-%d" % seed)
    pairs = [(engine, query) for engine in engines for query in corpus]
    while True:
        order = list(pairs)
        rng.shuffle(order)
        yield order


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------

#: Constant-bound templates of the five shapes.  ``$`` is the constant;
#: the second field names the entity kind it ranges over.
SERVE_TEMPLATES: Dict[str, Tuple[str, BgpQuery]] = {
    "single": (
        "student",
        BgpQuery(("course",), (("$", lubm("takesCourse"), "?course"),)),
    ),
    "star": (
        "course",
        BgpQuery(
            ("student", "name", "age", "dept"),
            (
                ("?student", lubm("name"), "?name"),
                ("?student", lubm("age"), "?age"),
                ("?student", lubm("memberOf"), "?dept"),
                ("?student", lubm("takesCourse"), "$"),
            ),
        ),
    ),
    "linear": (
        "course",
        BgpQuery(
            ("student", "prof"),
            (
                ("?student", lubm("advisor"), "?prof"),
                ("?prof", lubm("teacherOf"), "$"),
            ),
        ),
    ),
    "snowflake": (
        "course",
        BgpQuery(
            ("student", "sname", "prof", "pname", "dept"),
            (
                ("?student", lubm("name"), "?sname"),
                ("?student", lubm("takesCourse"), "$"),
                ("?student", lubm("advisor"), "?prof"),
                ("?prof", lubm("name"), "?pname"),
                ("?prof", lubm("worksFor"), "?dept"),
            ),
        ),
    ),
    "complex": (
        "professor",
        BgpQuery(
            ("a", "b"),
            (
                ("?a", lubm("takesCourse"), "?course"),
                ("?a", lubm("advisor"), "$"),
                ("?b", lubm("takesCourse"), "?course"),
                ("?b", lubm("advisor"), "$"),
            ),
        ),
    ),
}
SHAPE_ORDER = ("single", "star", "linear", "snowflake", "complex")
#: The shape of each successive template read.  Nearly every read is
#: cold (each commit empties the result cache), and the cold shapes sort
#: single < linear < complex < snowflake < star.  Complex comes three
#: times and star twice, so p50 falls well inside the complex mode and
#: p95 well inside the star mode, rather than on an edge, where they
#: would jump between modes from one seed to the next.
READ_ROTATION = (
    "single",
    "complex",
    "star",
    "linear",
    "complex",
    "snowflake",
    "star",
    "complex",
)

#: Predicates a commit touches (all of them occur in the templates).
COMMIT_PREDICATES = (
    (lubm("takesCourse"), "student", "course"),
    (lubm("advisor"), "student", "professor"),
    (lubm("teacherOf"), "professor", "course"),
)

#: The outcome the service must give each pathological example.
PATHOLOGICAL_STATUS = {"syntax_error": "error"}
PATHOLOGICAL_DEFAULT_STATUS = "rejected"
#: Cost-unit budget sent with pathological requests (over_budget.rq is
#: only refusable under a deadline, as its header says).
PATHOLOGICAL_DEADLINE = 5


def bind_template(template: BgpQuery, constant: str) -> BgpQuery:
    return BgpQuery(
        template.variables,
        tuple(
            tuple(constant if t == "$" else t for t in pattern)
            for pattern in template.patterns
        ),
    )


def render_request(bgp: BgpQuery) -> str:
    return "PREFIX lubm: <%s>\n%s" % (LUBM_NS, bgp.render())


def load_pathological(root: str) -> List[Tuple[str, str]]:
    paths = sorted(glob.glob(os.path.join(root, "examples", "queries", "pathological", "*.rq")))
    if not paths:
        raise FileNotFoundError("no pathological queries under %s" % root)
    out = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            out.append((os.path.splitext(os.path.basename(path))[0], handle.read()))
    return out


@dataclass
class ServeOp:
    kind: str  # "query" | "bad" | "commit"
    line: str  # the JSON request line
    shape: str = ""
    bgp: Optional[BgpQuery] = None
    expected_status: str = "ok"
    expected_payload: Optional[str] = None
    expected_version: int = 0


class ServeStream:
    """An endless seeded request stream, tracking the graph it implies.

    Template reads follow :data:`READ_ROTATION`, so every run sees the
    same shape mix whatever the seed; within a shape the constant is
    Zipf-distributed over ``per_shape`` seeded entities, which makes
    ``5 * per_shape`` distinct texts.  Every ``bad_every``-th read is a
    pathological example sent as-is.  With ``commit_every`` set, every
    ``commit_every``-th operation is a commit of seeded N-Triples
    additions and deletions.
    """

    def __init__(
        self,
        triples: Sequence[Triple],
        pathological: Sequence[Tuple[str, str]],
        seed: int,
        zipf_s: float,
        per_shape: int,
        bad_every: int,
        commit_every: int = 0,
        changes_per_commit: int = 2,
    ) -> None:
        self.rng = random.Random("serve-%d" % seed)
        self.triples: Set[Triple] = set(triples)
        self.version = 0
        self._by_pred: Dict[str, List[Triple]] = defaultdict(list)
        for triple in sorted(self.triples):
            self._by_pred[triple[1]].append(triple)
        subjects_of_type = defaultdict(set)
        for s, p, o in self.triples:
            if p == RDF_TYPE:
                subjects_of_type[o].add(s)
        self.entities = {
            "student": sorted(
                subjects_of_type[lubm("UndergraduateStudent")]
                | subjects_of_type[lubm("GraduateStudent")]
            ),
            "course": sorted(subjects_of_type[lubm("Course")]),
            "professor": sorted(
                subjects_of_type[lubm("FullProfessor")]
                | subjects_of_type[lubm("AssociateProfessor")]
                | subjects_of_type[lubm("AssistantProfessor")]
            ),
        }
        per_shape = min(
            [per_shape] + [len(self.entities[SERVE_TEMPLATES[s][0]]) for s in SHAPE_ORDER]
        )
        #: shape -> texts in Zipf rank order: (bgp, request text).
        self.texts: Dict[str, List[Tuple[BgpQuery, str]]] = {}
        for shape in SHAPE_ORDER:
            kind, template = SERVE_TEMPLATES[shape]
            pool = list(self.entities[kind])
            self.rng.shuffle(pool)
            bound = [bind_template(template, constant) for constant in pool[:per_shape]]
            self.texts[shape] = [(bgp, render_request(bgp)) for bgp in bound]
        weights = [1.0 / (rank + 1) ** zipf_s for rank in range(per_shape)]
        total = sum(weights)
        self._cdf = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self.pathological = list(pathological)
        self.bad_every = bad_every
        self.commit_every = commit_every
        self.changes_per_commit = changes_per_commit
        self.count = 0
        self.reads = 0
        self.template_reads = 0

    def _commit_op(self) -> ServeOp:
        deletions: List[Triple] = []
        additions: List[Triple] = []
        for _ in range(self.changes_per_commit):
            pred, skind, okind = self.rng.choice(COMMIT_PREDICATES)
            existing = self._by_pred[pred]
            victim = existing[self.rng.randrange(len(existing))]
            if victim not in deletions:
                deletions.append(victim)
            while True:
                triple = (
                    self.rng.choice(self.entities[skind]),
                    pred,
                    self.rng.choice(self.entities[okind]),
                )
                if triple not in self.triples and triple not in additions:
                    additions.append(triple)
                    break
        for triple in deletions:
            self.triples.discard(triple)
            self._by_pred[triple[1]].remove(triple)
        for triple in additions:
            self.triples.add(triple)
            self._by_pred[triple[1]].append(triple)
        self.version += 1
        line = json.dumps(
            {
                "op": "commit",
                "id": "c%d" % self.count,
                "additions": ["%s %s %s ." % t for t in additions],
                "deletions": ["%s %s %s ." % t for t in deletions],
            },
            sort_keys=True,
        )
        return ServeOp("commit", line, expected_version=self.version)

    def next_op(self) -> ServeOp:
        """The next request; commits update :attr:`triples` at once."""
        self.count += 1
        if self.commit_every and self.count % self.commit_every == 0:
            return self._commit_op()
        self.reads += 1
        if self.bad_every and self.reads % self.bad_every == 0:
            name, text = self.rng.choice(self.pathological)
            line = json.dumps(
                {
                    "op": "query",
                    "id": "r%d" % self.count,
                    "query": text,
                    "deadline": PATHOLOGICAL_DEADLINE,
                },
                sort_keys=True,
            )
            status = PATHOLOGICAL_STATUS.get(name, PATHOLOGICAL_DEFAULT_STATUS)
            return ServeOp("bad", line, shape=name, expected_status=status)
        shape = READ_ROTATION[self.template_reads % len(READ_ROTATION)]
        self.template_reads += 1
        rank = bisect.bisect_left(self._cdf, self.rng.random())
        bgp, text = self.texts[shape][min(rank, len(self._cdf) - 1)]
        line = json.dumps(
            {"op": "query", "id": "r%d" % self.count, "query": text}, sort_keys=True
        )
        return ServeOp("query", line, shape=shape, bgp=bgp)


class ServeExpectations:
    """Fills each op's expected outcome from the oracle at its version."""

    def __init__(self, stream: ServeStream) -> None:
        self.stream = stream
        self._oracle_version = -1
        self._oracle: Optional[Oracle] = None
        self._memo: Dict[Tuple[BgpQuery, int], str] = {}

    def next_op(self) -> ServeOp:
        op = self.stream.next_op()
        if op.kind == "query":
            key = (op.bgp, self.stream.version)
            payload = self._memo.get(key)
            if payload is None:
                if self._oracle_version != self.stream.version:
                    self._oracle = Oracle(self.stream.triples)
                    self._oracle_version = self.stream.version
                    self._memo.clear()
                payload = bindings_payload(op.bgp.variables, self._oracle.select(op.bgp))
                self._memo[key] = payload
            op.expected_payload = payload
        op.expected_version = self.stream.version
        return op
