"""Expected answers, computed by brute force from a document's statement
records (see ``synth.py``), never by calling phasekit."""

from __future__ import annotations

from collections import Counter

from synth import CLASSES, GUIDES, REFERENCES, Doc


class Key:
    """The answers one document should produce."""

    def __init__(self, doc: Doc) -> None:
        self.doc = doc
        of = doc.of
        self.stmts = len(doc.stmts)
        self.losses = [s.id for s in of["loss"]]
        self.boundaries = [s.id for s in of["boundary"]]
        self.actions = [e for e in of["edge"] if e.keyword == "action"]
        sources = {a.attrs["from"] for a in self.actions}
        self.controllers = [n.id for n in of["node"] if n.id in sources]
        self.hazards_of_loss: dict[str, list] = {}
        for hazard in of["hazard"]:
            for loss in dict.fromkeys(hazard.attrs["leads_to"]):
                self.hazards_of_loss.setdefault(loss, []).append(hazard)
        self.ucas_of_hazard: dict[str, list] = {}
        for uca in of["uca"]:
            for hazard in dict.fromkeys(uca.attrs["hazards"]):
                self.ucas_of_hazard.setdefault(hazard, []).append(uca)
        self.scenarios_of_uca: dict[str, list] = {}
        for scenario in of["scenario"]:
            self.scenarios_of_uca.setdefault(scenario.attrs["uca"], []).append(scenario)
        self.requirements_of_scenario: dict[str, list] = {}
        for requirement in of["requirement"]:
            for scenario in dict.fromkeys(requirement.attrs["scenarios"]):
                self.requirements_of_scenario.setdefault(scenario, []).append(requirement)

    def describe(self, cls: str, element_id: str) -> str:
        stmt = self.doc.by_ref[(cls, element_id)]
        text = stmt.attrs["context"] if cls == "uca" else stmt.text
        return f'{element_id} "{text}"'

    # -- scope ------------------------------------------------------------

    def scope(self, boundary: str | None) -> tuple[list, list]:
        """Nodes and edges inside a boundary (all of them for None)."""
        nodes, edges = self.doc.of["node"], self.doc.of["edge"]
        if boundary is not None:
            included = set(self.doc.by_ref[("boundary", boundary)].attrs.get("includes", ()))
            nodes = [n for n in nodes if n.id in included]
            inside = {n.id for n in nodes}
            edges = [e for e in edges if e.attrs["from"] in inside and e.attrs["to"] in inside]
        return nodes, edges

    def dot(self, boundary: str | None) -> tuple[list[str], list[tuple[str, str]]]:
        """Node ids and (source, target) pairs that ``render`` must emit."""
        nodes, edges = self.scope(boundary)
        return [n.id for n in nodes], [(e.attrs["from"], e.attrs["to"]) for e in edges]

    # -- coverage ---------------------------------------------------------

    def coverage(self, boundary: str | None = None) -> list[list[str]]:
        """Rows ``[controller, action, cell per guide type]``; a cell reads
        ``covered:<uca ids>``, ``waived`` or ``gap``."""
        ucas: dict[tuple[str, str], list[str]] = {}
        for uca in self.doc.of["uca"]:
            ucas.setdefault((uca.attrs["action"], uca.attrs["type"]), []).append(uca.id)
        waived = {(a.attrs["action"], a.attrs["type"]) for a in self.doc.of["assessment"]}
        _, edges = self.scope(boundary)
        actions = sorted(
            (e for e in edges if e.keyword == "action"), key=lambda e: (e.attrs["from"], e.id)
        )
        rows = []
        for action in actions:
            cells = []
            for guide in GUIDES:
                ids = sorted(ucas.get((action.id, guide), ()))
                if ids:
                    cells.append("covered:" + ";".join(ids))
                else:
                    cells.append("waived" if (action.id, guide) in waived else "gap")
            rows.append([action.attrs["from"], action.id, *cells])
        return rows

    @staticmethod
    def counts(rows: list[list[str]]) -> tuple[int, int, int, float]:
        """(covered, waived, gap, ratio) of coverage rows."""
        cells = Counter(cell.split(":")[0] for row in rows for cell in row[2:])
        covered, waived, gap = cells["covered"], cells["waived"], cells["gap"]
        total = covered + waived + gap
        return covered, waived, gap, (covered + waived) / total if total else 1.0

    # -- hints ------------------------------------------------------------

    def hint_counts(self) -> Counter:
        of = self.doc.of
        found = Counter()
        feedback = {(e.attrs["from"], e.attrs["to"]) for e in of["edge"] if e.keyword == "feedback"}
        for edge in of["edge"]:
            if edge.keyword == "action" and (edge.attrs["to"], edge.attrs["from"]) not in feedback:
                found["missing-feedback"] += 1
            if edge.attrs["from"] == edge.attrs["to"]:
                found["self-loop"] += 1
        with_ucas = {u.attrs["action"] for u in of["uca"]}
        nodes = {n.id: n for n in of["node"]}
        undocumented = {
            a.attrs["from"] for a in self.actions
            if a.id in with_ucas and a.attrs["from"] in nodes
            and not nodes[a.attrs["from"]].attrs.get("process_model")
        }
        found["no-process-model"] += len(undocumented)
        linked = {e.attrs[end] for e in of["edge"] for end in ("from", "to")}
        found["orphan-node"] += sum(1 for n in of["node"] if n.id not in linked)
        for code, cls, cited in (
            ("loss-without-hazard", "loss", self.hazards_of_loss),
            ("hazard-without-uca", "hazard", self.ucas_of_hazard),
            ("uca-without-scenario", "uca", self.scenarios_of_uca),
            ("scenario-without-requirement", "scenario", self.requirements_of_scenario),
        ):
            found[code] += sum(1 for s in of[cls] if s.id not in cited)
        return +found

    # -- traces -----------------------------------------------------------

    def loss_trace(self, loss: str) -> str:
        """The exact output of ``trace --loss``."""
        lines = [f"loss {self.describe('loss', loss)}"]
        for hazard in self.hazards_of_loss.get(loss, ()):
            lines.append(f"  hazard {self.describe('hazard', hazard.id)}")
            for uca in self.ucas_of_hazard.get(hazard.id, ()):
                lines.append(f"    uca {self.describe('uca', uca.id)}")
                for scenario in self.scenarios_of_uca.get(uca.id, ()):
                    lines.append(f"      scenario {self.describe('scenario', scenario.id)}")
                    for requirement in self.requirements_of_scenario.get(scenario.id, ()):
                        lines.append(
                            f"        requirement {self.describe('requirement', requirement.id)}"
                        )
        return "".join(line + "\n" for line in lines)

    def chain_line(self, loss: str) -> str:
        """The loss's line in the report's traceability section (distinct ids)."""
        hazards = self.hazards_of_loss.get(loss, [])
        ucas = {u.id for h in hazards for u in self.ucas_of_hazard.get(h.id, ())}
        scenarios = {s.id for u in ucas for s in self.scenarios_of_uca.get(u, ())}
        requirements = {r.id for s in scenarios for r in self.requirements_of_scenario.get(s, ())}
        return (
            f"- {loss}: {len({h.id for h in hazards})} hazards, {len(ucas)} ucas, "
            f"{len(scenarios)} scenarios, {len(requirements)} requirements"
        )

    def node_trace(self, node: str) -> str:
        """The exact output of ``trace --node``."""
        of = self.doc.of
        actions = [a.id for a in self.actions if a.attrs["from"] == node]
        ucas = [u for u in of["uca"] if u.attrs["action"] in actions]
        hazard_ids = {h for u in ucas for h in u.attrs["hazards"]}
        hazards = [h for h in of["hazard"] if h.id in hazard_ids]
        loss_ids = {l for h in hazards for l in h.attrs["leads_to"]}
        sections = (
            ("controls", "edge", actions),
            ("ucas", "uca", [u.id for u in ucas]),
            ("hazards reached", "hazard", [h.id for h in hazards]),
            ("losses reached", "loss", [l.id for l in of["loss"] if l.id in loss_ids]),
            ("cited in scenarios", "scenario",
             [s.id for s in of["scenario"] if node in s.attrs.get("elements", ())]),
        )
        lines = [f"node {self.describe('node', node)}"]
        for title, cls, ids in sections:
            if ids:
                lines.append(f"{title}:")
                lines.extend(f"  {self.describe(cls, i)}" for i in ids)
        return "".join(line + "\n" for line in lines)

    # -- diff -------------------------------------------------------------

    def _fields(self, stmt) -> tuple:
        attrs = {
            k: frozenset(v) if isinstance(v, tuple) else v for k, v in stmt.attrs.items()
        }
        if stmt.keyword == "uca":
            action = self.doc.by_ref.get(("edge", stmt.attrs["action"]))
            attrs["source"] = action.attrs["from"] if action is not None else ""
        return stmt.keyword, stmt.text, attrs

    def referencers(self, ref: tuple[str, str]) -> list[tuple[str, str]]:
        """Elements whose references name ``ref``, sorted."""
        cls, target = ref
        hits = set()
        for (src_cls, key), target_cls in REFERENCES.items():
            if target_cls != cls and not (target_cls == "node-or-edge" and cls in ("node", "edge")):
                continue
            for stmt in self.doc.of[src_cls]:
                value = self._fields(stmt)[2].get(key)
                if value == target or (isinstance(value, frozenset) and target in value):
                    hits.add((src_cls, stmt.key))
        return sorted(hits)


def ref_order(ref: tuple[str, str]) -> tuple[int, str]:
    return CLASSES.index(ref[0]), ref[1]


def changes(old: Key, new: Key) -> dict:
    """What ``diff OLD NEW --impact`` must report: added, removed and modified
    refs in order, the re-review subjects, and each removed ref with the
    elements of the new version that still cite it."""
    old_refs = {ref: old._fields(s) for ref, s in old.doc.by_ref.items()}
    new_refs = {ref: new._fields(s) for ref, s in new.doc.by_ref.items()}
    added = sorted(new_refs.keys() - old_refs.keys(), key=ref_order)
    removed = sorted(old_refs.keys() - new_refs.keys(), key=ref_order)
    modified = sorted(
        (r for r in old_refs.keys() & new_refs.keys() if old_refs[r] != new_refs[r]), key=ref_order
    )
    return {
        "added": added,
        "removed": removed,
        "modified": modified,
        "re_review": sorted((r for r in added + modified if r[0] in ("node", "edge")), key=ref_order),
        "dangling": [(r, new.referencers(r)) for r in removed],
    }
