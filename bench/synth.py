"""PHASE documents for the benchmark: a statement reader, two renderings, a
seeded synthetic generator and a seeded revision.

Nothing here imports phasekit. A document is a list of plain statement
records; this module turns records into text (canonical or authored style)
and text back into records, so the expected answers in ``answers.py`` are
computed from the generator's own data, never from phasekit's output.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

#: Element classes in canonical declaration order.
CLASSES = (
    "loss", "boundary", "hazard", "node", "edge",
    "uca", "scenario", "requirement", "assessment",
)

GUIDES = ("provided", "not-provided", "wrong-timing", "stopped-too-soon-applied-too-long")

#: Canonical layout after ``keyword id``: "" is the quoted description, every
#: other entry an attribute key, emitted only when the statement has it.
LAYOUT = {
    "loss": ("", "category"),
    "boundary": ("", "stage", "includes"),
    "hazard": ("", "boundary", "leads_to"),
    "node": ("", "kind", "process_model", "control_algorithm"),
    "action": ("from", "to", ""),
    "feedback": ("from", "to", ""),
    "iolink": ("from", "to", ""),
    "uca": ("action", "type", "category", "context", "hazards"),
    "scenario": ("uca", "class", "", "elements"),
    "requirement": ("scenarios", ""),
    "assess": ("action", "type", "verdict", "rationale"),
}
STRING_KEYS = frozenset({"process_model", "control_algorithm", "context", "rationale"})
_CLASS_OF = {"action": "edge", "feedback": "edge", "iolink": "edge", "assess": "assessment"}


@dataclass
class Stmt:
    """One declaration: id lists are tuples, every other value a string."""

    keyword: str
    id: str | None = None
    text: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def cls(self) -> str:
        return _CLASS_OF.get(self.keyword, self.keyword)

    @property
    def key(self) -> str:
        """The id, or ``action/type`` for an assessment."""
        if self.keyword == "assess":
            return f"{self.attrs['action']}/{self.attrs['type']}"
        return self.id


class Doc:
    """A document's statements, grouped by element class in declaration order."""

    def __init__(self, stmts: list[Stmt]) -> None:
        self.stmts = stmts
        self.name = next((s.text for s in stmts if s.keyword == "model"), "")
        self.of: dict[str, list[Stmt]] = {cls: [] for cls in CLASSES}
        for stmt in stmts:
            if stmt.keyword != "model":
                self.of[stmt.cls].append(stmt)
        self.by_ref = {(s.cls, s.key): s for s in stmts if s.keyword != "model"}


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _parts(stmt: Stmt) -> list[str]:
    """Description and attributes in canonical order."""
    parts = []
    for item in LAYOUT[stmt.keyword]:
        if item == "":
            parts.append(quote(stmt.text))
        elif item in stmt.attrs:
            value = stmt.attrs[item]
            if isinstance(value, tuple):
                value = "[" + ",".join(value) + "]"
            elif item in STRING_KEYS:
                value = quote(value)
            parts.append(f"{item}={value}")
    return parts


def _head(stmt: Stmt) -> str:
    return stmt.keyword if stmt.id is None else f"{stmt.keyword} {stmt.id}"


def canonical(doc: Doc) -> str:
    """The text ``phasekit fmt`` must print for this document."""
    lines = [f"model {quote(doc.name)}"] if doc.name else []
    for cls in CLASSES:
        lines.extend(" ".join([_head(s), *_parts(s)]) for s in doc.of[cls])
    return "".join(line + "\n" for line in lines)


#: Section order of the authored rendering; differs from the canonical order
#: so that ``fmt`` has to regroup statements.
_AUTHORED_ORDER = (
    "loss", "hazard", "boundary", "node", "edge",
    "uca", "scenario", "requirement", "assessment",
)


def authored(doc: Doc, seed: object) -> str:
    """The same document as a person would write it: section comments, blank
    lines, shuffled attribute order, ``\\`` continuations, trailing comments."""
    rng = random.Random(f"authored/{seed}")
    out = [f"# {doc.name}\n", "# Sections follow the order an analyst fills them in.\n"]
    out.append(f"model {quote(doc.name)}\n")
    for cls in _AUTHORED_ORDER:
        out.append(f"\n# ---- {cls} ----\n")
        for index, stmt in enumerate(doc.of[cls]):
            if index and index % 40 == 0:
                out.append("\n")
            parts = _parts(stmt)
            rng.shuffle(parts)
            line = _head(stmt)
            for part in parts:
                line += " \\\n    " if rng.random() < 0.25 else rng.choice((" ", " ", "  "))
                line += part
            if rng.random() < 0.08:
                line += "  # reviewed"
            out.append(line + "\n")
    return "".join(out)


_TOKEN = re.compile(
    r'(?P<skip>[ \t]+|\\\r?\n|#[^\r\n]*)|(?P<nl>\r?\n)'
    r'|"(?P<str>(?:[^"\\\r\n]|\\["\\])*)"|(?P<word>[A-Za-z0-9_-]+)|(?P<punct>[=\[\],])'
)
_UNESCAPE = re.compile(r'\\(["\\])')


def read(text: str) -> Doc:
    """Statement records of a well-formed document (the fixtures, or text this
    module rendered). Raises ``ValueError`` on anything else."""
    statements: list[list[tuple[str, str]]] = [[]]
    pos = 0
    for match in _TOKEN.finditer(text):
        if match.start() != pos:
            raise ValueError(f"unreadable text at offset {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "nl":
            statements.append([])
        elif kind == "str":
            statements[-1].append(("str", _UNESCAPE.sub(r"\1", match.group("str"))))
        elif kind != "skip":
            statements[-1].append((kind, match.group(kind)))
    if pos != len(text):
        raise ValueError(f"unreadable text at offset {pos}")
    return Doc([_statement(tokens) for tokens in statements if tokens])


def _statement(tokens: list[tuple[str, str]]) -> Stmt:
    keyword = tokens[0][1]
    stmt = Stmt(keyword)
    i = 1
    if keyword not in ("model", "assess"):
        stmt.id = tokens[1][1]
        i = 2
    while i < len(tokens):
        kind, value = tokens[i]
        if kind == "str":
            stmt.text = value
            i += 1
            continue
        if tokens[i + 1] != ("punct", "="):
            raise ValueError(f"expected '=' after {value!r}")
        if tokens[i + 2] == ("punct", "["):
            end = tokens.index(("punct", "]"), i + 3)
            stmt.attrs[value] = tuple(v for k, v in tokens[i + 3:end] if k == "word")
            i = end + 1
        else:
            stmt.attrs[value] = tokens[i + 2][1]
            i += 3
    return stmt


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

_WORDS = (
    "sensor dose alarm record model label drift threshold operator review "
    "consent audit pump feed retrain latency signal override queue cohort "
    "triage escalation prompt filter dataset shift clinician schedule"
).split()
_LOSS_CATEGORIES = ("safety-critical", "performance-related", "sociotechnical")
_STAGES = ("data-collection", "model-development", "use-operation", "other")
_NODE_KINDS = (
    "human", "team", "organization", "technical-artifact", "ai-model", "automated-system",
)
_UCA_CATEGORIES = ("functional", "design-or-misuse", "communication-coordination")
_SCENARIO_CLASSES = ("organizational", "interaction", "technical")


def _text(rng: random.Random) -> str:
    text = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 4)))
    roll = rng.random()
    if roll < 0.05:
        text += ' in "safe" mode'
    elif roll < 0.07:
        text += " under C:\\ops\\queue"
    return text


def generate(n: int, seed: object) -> Doc:
    """A valid model with the benchmark's shape: n/20 losses, n/2 hazards,
    n nodes, n control actions plus n feedback edges (a seeded share of
    actions lacks feedback), 2n each of ucas, scenarios and requirements,
    boundaries, and assessments that waive uncovered cells. Control actions
    only run from lower to higher node numbers, so there are no cycles."""
    rng = random.Random(f"generate/{n}/{seed}")
    stmts = [Stmt("model", text=f"Synthetic hazard model n={n} seed={seed}")]

    losses = [
        Stmt("loss", f"L{i}", _text(rng), {"category": rng.choice(_LOSS_CATEGORIES)})
        for i in range(1, max(1, n // 20) + 1)
    ]
    nodes = []
    for i in range(1, n + 1):
        attrs = {"kind": rng.choice(_NODE_KINDS)}
        if rng.random() < 0.6:
            attrs["process_model"] = _text(rng)
        if rng.random() < 0.3:
            attrs["control_algorithm"] = _text(rng)
        nodes.append(Stmt("node", f"N{i}", _text(rng), attrs))
    # Every 101st node stays unconnected (orphan-node hints).
    linked = [node.id for i, node in enumerate(nodes) if i % 101 != 100]

    pairs = [
        (linked[rng.randrange(max(0, i - 40), i)], linked[i]) for i in range(1, len(linked))
    ]
    while len(pairs) < n:
        a = rng.randrange(len(linked) - 1)
        pairs.append((linked[a], linked[rng.randrange(a + 1, min(len(linked), a + 40))]))
    missing_share = rng.uniform(0.1, 0.3)
    edges, actions, feedback = [], [], 0
    for k, (source, target) in enumerate(pairs, 1):
        action = Stmt("action", f"CA{k}", _text(rng), {"from": source, "to": target})
        edges.append(action)
        actions.append(action)
        if rng.random() >= missing_share:
            feedback += 1
            edges.append(Stmt("feedback", f"FB{feedback}", _text(rng), {"from": target, "to": source}))
    while feedback < n:
        feedback += 1
        a, b = rng.sample(linked, 2)
        edges.append(Stmt("feedback", f"FB{feedback}", _text(rng), {"from": a, "to": b}))

    width = max(1, n // max(3, n // 250))
    boundaries = []
    for j in range(max(3, n // 250)):
        members = tuple(node.id for node in nodes[max(0, j * width - width // 4):(j + 1) * width])
        attrs = {"includes": members}
        if j % 5 != 4:
            attrs["stage"] = _STAGES[j % len(_STAGES)]
        boundaries.append(Stmt("boundary", f"SB{j + 1}", _text(rng), attrs))

    # The last loss and the last 3% of hazards stay unreferenced.
    cited_losses = losses[:-1] or losses
    hazards = [
        Stmt("hazard", f"H{i}", _text(rng), {
            "boundary": rng.choice(boundaries).id,
            "leads_to": tuple(l.id for l in rng.sample(cited_losses, min(len(cited_losses), rng.randint(1, 2)))),
        })
        for i in range(1, max(1, n // 2) + 1)
    ]
    cited_hazards = hazards[: max(1, len(hazards) * 97 // 100)]
    ucas = []
    for i in range(1, 2 * n + 1):
        action = rng.choice(actions)
        ucas.append(Stmt("uca", f"UCA{i}", None, {
            "action": action.id,
            "type": rng.choice(GUIDES),
            "category": rng.choice(_UCA_CATEGORIES),
            "context": _text(rng),
            "hazards": tuple(h.id for h in rng.sample(cited_hazards, min(len(cited_hazards), rng.randint(1, 2)))),
        }))
    action_by_id = {a.id: a for a in actions}
    scenarios = []
    for i in range(1, 2 * n + 1):
        uca = rng.choice(ucas)
        attrs = {"uca": uca.id, "class": rng.choice(_SCENARIO_CLASSES)}
        if rng.random() < 0.7:
            pool = (action_by_id[uca.attrs["action"]].attrs["from"], uca.attrs["action"], rng.choice(nodes).id)
            attrs["elements"] = tuple(dict.fromkeys(rng.sample(pool, rng.randint(1, 2))))
        scenarios.append(Stmt("scenario", f"S{i}", _text(rng), attrs))
    requirements = [
        Stmt("requirement", f"R{i}", _text(rng), {
            "scenarios": tuple(s.id for s in rng.sample(scenarios, rng.randint(1, 2))),
        })
        for i in range(1, 2 * n + 1)
    ]
    covered = {(u.attrs["action"], u.attrs["type"]) for u in ucas}
    waived: dict[tuple[str, str], None] = {}
    while len(waived) < n // 4:
        cell = (rng.choice(actions).id, rng.choice(GUIDES))
        if cell not in covered:
            waived[cell] = None
    assessments = [
        Stmt("assess", None, None, {
            "action": action, "type": guide, "verdict": "not-hazardous", "rationale": _text(rng),
        })
        for action, guide in waived
    ]
    stmts += losses + boundaries + hazards + nodes + edges + ucas + scenarios + requirements + assessments
    return Doc(stmts)


def revise(doc: Doc, seed: object, k: int) -> Doc:
    """A later, still valid version of ``doc``: k nodes renamed, k control
    actions relabelled (every other one also retargeted), k scenarios removed
    (requirements citing them drop the reference, or go when none is left),
    k more requirements removed, and k new nodes each with a control action,
    a feedback edge, a uca and a scenario."""
    rng = random.Random(f"revise/{seed}")
    stmts = [Stmt(s.keyword, s.id, s.text, dict(s.attrs)) for s in doc.stmts]
    of = Doc(stmts).of
    node_ids = [n.id for n in of["node"]]
    for node in rng.sample(of["node"], min(k, len(of["node"]))):
        node.text += " (revised)"
    actions = [e for e in of["edge"] if e.keyword == "action"]
    for i, action in enumerate(rng.sample(actions, min(k, len(actions)))):
        action.text += " (revised)"
        if i % 2 == 0:
            action.attrs["to"] = rng.choice([n for n in node_ids if n != action.attrs["from"]])

    gone = {s.id for s in rng.sample(of["scenario"], min(k, len(of["scenario"])))}
    drop = {("scenario", s) for s in gone}
    for requirement in of["requirement"]:
        kept = tuple(s for s in requirement.attrs["scenarios"] if s not in gone)
        if kept:
            requirement.attrs["scenarios"] = kept
        else:
            drop.add(("requirement", requirement.id))
    left = [r for r in of["requirement"] if ("requirement", r.id) not in drop]
    drop.update(("requirement", r.id) for r in rng.sample(left, min(k, len(left))))
    stmts = [s for s in stmts if (s.cls, s.key) not in drop]

    hazard_ids = [h.id for h in of["hazard"]]
    for i in range(1, k + 1):
        parent = rng.choice(node_ids)
        stmts += [
            Stmt("node", f"RevN{i}", _text(rng), {"kind": rng.choice(_NODE_KINDS)}),
            Stmt("action", f"RevCA{i}", _text(rng), {"from": parent, "to": f"RevN{i}"}),
            Stmt("feedback", f"RevFB{i}", _text(rng), {"from": f"RevN{i}", "to": parent}),
            Stmt("uca", f"RevUCA{i}", None, {
                "action": f"RevCA{i}", "type": rng.choice(GUIDES),
                "category": rng.choice(_UCA_CATEGORIES), "context": _text(rng),
                "hazards": (rng.choice(hazard_ids),),
            }),
            Stmt("scenario", f"RevS{i}", _text(rng), {
                "uca": f"RevUCA{i}", "class": rng.choice(_SCENARIO_CLASSES),
                "elements": (f"RevN{i}",),
            }),
        ]
    return Doc(stmts)


#: (class, attribute) -> class of the element it names. A uca's ``source``
#: is derived from its action, never written.
REFERENCES = {
    ("boundary", "includes"): "node",
    ("hazard", "boundary"): "boundary",
    ("hazard", "leads_to"): "loss",
    ("edge", "from"): "node",
    ("edge", "to"): "node",
    ("uca", "source"): "node",
    ("uca", "action"): "edge",
    ("uca", "hazards"): "hazard",
    ("scenario", "uca"): "uca",
    ("scenario", "elements"): "node-or-edge",
    ("requirement", "scenarios"): "scenario",
    ("assessment", "action"): "edge",
}


def enlarged(doc: Doc, copies: int) -> Doc:
    """``doc`` plus ``copies - 1`` renamed copies of its elements: every id
    and every reference gets a ``xN`` suffix, so each copy is a disjoint
    replica and the model grows ``copies`` times."""
    stmts = list(doc.stmts)
    for c in range(2, copies + 1):
        for stmt in doc.stmts:
            if stmt.keyword == "model":
                continue
            attrs = {
                key: (tuple(f"{v}x{c}" for v in value) if isinstance(value, tuple) else f"{value}x{c}")
                if (stmt.cls, key) in REFERENCES else value
                for key, value in stmt.attrs.items()
            }
            stmts.append(Stmt(stmt.keyword, stmt.id and f"{stmt.id}x{c}", stmt.text, attrs))
    return Doc(stmts)
