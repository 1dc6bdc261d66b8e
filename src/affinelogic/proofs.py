"""Finitary proof checker for the affine deduction system.

Proofs are finite trees whose leaves are axiom instances (A1-A22) or
hypotheses from a condition set Gamma and whose internal nodes apply one of
the rules

    R1  phi<=psi, psi<=theta  /  phi<=theta
    R2  phi<=psi              /  phi+theta <= psi+theta
    R3  0<=r, phi<=psi        /  r*phi <= r*psi
    R4  phi<=psi              /  sup_x phi <= sup_x psi   (x not free in Gamma)

Every node carries a single <=-condition; an axiom stated as an equality
justifies either orientation.  Matching is purely syntactic on the ASTs: the
constant 0 is the canonical 0*1, bounds appearing in axioms use the atomic
formula 1, and no arithmetic normalization is applied implicitly (a separate
``normalize_zero_scales`` helper is provided for callers who want 0*phi
collapsed before building nodes).  Checking is deterministic and total.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Callable, Sequence

from .structures import FiniteStructure, holds_universally
from .syntax import (
    App,
    Condition,
    Dist,
    Formula,
    Inf,
    ONE,
    One,
    Rel,
    Scale,
    Sum,
    Sup,
    Term,
    ZERO,
    numeral,
    substitute,
    substitution_correct,
)

AXIOM_TAGS = tuple(f"A{i}" for i in range(1, 23))
RULE_TAGS = ("R1", "R2", "R3", "R4")


def _match(pattern: Any, obj: Any, bindings: dict[str, Any]) -> bool:
    """Whether obj is an instance of the pattern tree, extending bindings.

    A tuple (cls, *parts) matches an instance of cls whose first fields
    match the parts in declaration order.  A string is a metavariable: phi,
    psi and theta stand for formulas, r, s, u, r1 and r2 for coefficients, t
    and t1-t3 for terms, x for the quantified variable; it is bound at its
    first occurrence and must equal that binding at every later one.
    Anything else (ONE, ZERO, the coefficients 0, 1 and -1) matches what
    equals it.
    """
    if isinstance(pattern, tuple):
        cls, *parts = pattern
        return isinstance(obj, cls) and all(
            _match(part, getattr(obj, f.name), bindings)
            for part, f in zip(parts, fields(cls))
        )
    if isinstance(pattern, str):
        return bindings.setdefault(pattern, obj) == obj
    return obj == pattern


@dataclass(frozen=True)
class AxiomSchema:
    """Catalog entry for one axiom, matched purely syntactically.

    For an axiom of fixed shape, `lhs` and `rhs` are its two sides as pattern
    trees (see `_match`), and `check`, if any, takes the bindings as keyword
    arguments and returns the reason its arithmetic or side condition fails.
    A12, A20, A21 and A22 have no trees; `_check_axiom` checks them by hand.
    """

    tag: str
    pattern: str
    side_condition: str | None = None
    equality: bool = False  # equalities justify either <= orientation
    lhs: Any = None
    rhs: Any = None
    check: Callable[..., str | None] | None = None

    def mismatch(self, lhs: Formula, rhs: Formula) -> str | None:
        """Why lhs <= rhs is no instance of the pattern trees, or None."""
        bindings: dict[str, Any] = {}
        if not (_match(self.lhs, lhs, bindings) and _match(self.rhs, rhs, bindings)):
            return f"shape mismatch for {self.pattern}"
        return self.check(**bindings) if self.check else None


def _num(r: str) -> tuple:
    """The pattern of the numeral r*1."""
    return (Scale, r, ONE)


def _sum_is(a: Fraction, b: Fraction, c: Fraction) -> str | None:
    return None if a + b == c else f"arithmetic fails: {a}+{b} != {c}"


def _product_is(a: Fraction, b: Fraction, c: Fraction) -> str | None:
    return None if a * b == c else f"arithmetic fails: {a}*{b} != {c}"


AXIOM_SCHEMAS: dict[str, AxiomSchema] = {
    s.tag: s
    for s in (
        AxiomSchema(
            "A1", "r1+r2 = r", "r1 + r2 = r holds in the reals", True,
            (Sum, _num("r1"), _num("r2")), _num("r"),
            lambda r1, r2, r: _sum_is(r1, r2, r),
        ),
        AxiomSchema(
            "A2", "r1*r2 = r", "r1 * r2 = r holds in the reals", True,
            (Scale, "r1", _num("r2")), _num("r"),
            lambda r1, r2, r: _product_is(r1, r2, r),
        ),
        AxiomSchema(
            "A3", "r <= s", "r <= s holds in the reals", False,
            _num("r"), _num("s"),
            lambda r, s: None if r <= s else f"arithmetic fails: {r} > {s}",
        ),
        AxiomSchema(
            "A4", "phi+(psi+theta) = (phi+psi)+theta", None, True,
            (Sum, "phi", (Sum, "psi", "theta")), (Sum, (Sum, "phi", "psi"), "theta"),
        ),
        AxiomSchema(
            "A5", "phi+psi = psi+phi", None, True, (Sum, "phi", "psi"), (Sum, "psi", "phi")
        ),
        AxiomSchema("A6", "0+phi = phi", None, True, (Sum, ZERO, "phi"), "phi"),
        AxiomSchema(
            "A7", "r(phi+psi) = r*phi+r*psi", None, True,
            (Scale, "r", (Sum, "phi", "psi")), (Sum, (Scale, "r", "phi"), (Scale, "r", "psi")),
        ),
        AxiomSchema(
            "A8", "(r+s)phi = r*phi+s*phi", None, True,
            (Scale, "u", "phi"), (Sum, (Scale, "r", "phi"), (Scale, "s", "phi")),
            lambda r, s, u, phi: _sum_is(r, s, u),
        ),
        AxiomSchema(
            "A9", "r(s*phi) = (rs)phi", None, True,
            (Scale, "r", (Scale, "s", "phi")), (Scale, "u", "phi"),
            lambda r, s, u, phi: _product_is(r, s, u),
        ),
        AxiomSchema("A10", "1*phi = phi", None, True, (Scale, 1, "phi"), "phi"),
        AxiomSchema("A11", "0*phi = 0", None, True, (Scale, 0, "phi"), ZERO),
        AxiomSchema("A12", "phi[t/x] <= sup x. phi", "the substitution of t for x is correct"),
        AxiomSchema(
            "A13", "sup_x(phi+psi) = (sup_x phi)+psi", "x is not free in psi", True,
            (Sup, "x", (Sum, "phi", "psi")), (Sum, (Sup, "x", "phi"), "psi"),
            lambda x, phi, psi: (
                f"side condition fails: {x} is free in the residue" if x in psi.free else None
            ),
        ),
        AxiomSchema(
            "A14", "sup_x(phi+psi) <= sup_x phi + sup_x psi", None, False,
            (Sup, "x", (Sum, "phi", "psi")), (Sum, (Sup, "x", "phi"), (Sup, "x", "psi")),
        ),
        AxiomSchema(
            "A15", "sup_x(r*phi) = r*sup_x phi", "0 <= r", True,
            (Sup, "x", (Scale, "r", "phi")), (Scale, "r", (Sup, "x", "phi")),
            lambda x, r, phi: f"side condition fails: r = {r} < 0" if r < 0 else None,
        ),
        AxiomSchema(
            "A16", "sup_x phi = -inf_x -phi", None, True,
            (Sup, "x", "phi"), (Scale, -1, (Inf, "x", (Scale, -1, "phi"))),
        ),
        AxiomSchema("A17", "d(t,t) = 0", None, True, (Dist, "t", "t"), ZERO),
        AxiomSchema(
            "A18", "d(t1,t2) = d(t2,t1)", None, True, (Dist, "t1", "t2"), (Dist, "t2", "t1")
        ),
        AxiomSchema(
            "A19", "d(t1,t3) <= d(t1,t2)+d(t2,t3)", None, False,
            (Dist, "t1", "t3"), (Sum, (Dist, "t1", "t2"), (Dist, "t2", "t3")),
        ),
        AxiomSchema("A20", "d(F(xs),F(ys)) <= lambda_F * (d(x1,y1) + ... + d(xn,yn))"),
        AxiomSchema("A21", "R(xs) - R(ys) <= lambda_R * (d(x1,y1) + ... + d(xn,yn))"),
        AxiomSchema("A22", "0 <= R(ts), R(ts) <= 1 (including d)"),
    )
}


@dataclass(frozen=True)
class ProofNode:
    concl: Condition
    by: str  # axiom tag, rule tag, or "hyp:<index>"
    premises: tuple["ProofNode", ...] = ()
    inst: dict[str, Term] = field(default_factory=dict, hash=False, compare=False)


def axiom(concl: Condition, tag: str, **inst: Term) -> ProofNode:
    return ProofNode(concl, tag, (), dict(inst))


def hypothesis(concl: Condition, index: int) -> ProofNode:
    return ProofNode(concl, f"hyp:{index}")


def rule(concl: Condition, tag: str, *premises: ProofNode) -> ProofNode:
    return ProofNode(concl, tag, tuple(premises))


@dataclass
class CheckResult:
    valid: bool
    path: str = ""
    reason: str = ""

    def __bool__(self):
        return self.valid


def _dist_chain(phi: Formula) -> list[Dist] | None:
    """Decompose a left-associated sum of distance atoms."""
    if isinstance(phi, Dist):
        return [phi]
    if isinstance(phi, Sum):
        left = _dist_chain(phi.left)
        if left is not None and isinstance(phi.right, Dist):
            return left + [phi.right]
    return None


def _check_axiom(tag: str, concl: Condition, inst: dict[str, Term]) -> str | None:
    lhs, rhs = concl.lhs, concl.rhs
    schema = AXIOM_SCHEMAS.get(tag)
    if schema is not None and schema.lhs is not None:
        err = schema.mismatch(lhs, rhs)
        if err is not None and schema.equality and schema.mismatch(rhs, lhs) is None:
            return None
        return err
    if tag == "A12":
        if not isinstance(rhs, Sup):
            return "right side must be sup_x phi"
        t = inst.get("t")
        if t is None:
            return "missing metavariable t (the substituted term)"
        if not substitution_correct(rhs.body, rhs.varname, t):
            return f"substitution of {t} for {rhs.varname} is not correct (capture)"
        expected = substitute(rhs.body, rhs.varname, t)
        if lhs == expected:
            return None
        return "left side is not phi[t/x]"
    if tag == "A20":
        if not (
            isinstance(lhs, Dist)
            and isinstance(lhs.left, App)
            and isinstance(lhs.right, App)
            and lhs.left.func == lhs.right.func
        ):
            return "left side must be d(F(xs), F(ys))"
        if not (isinstance(rhs, Scale) and rhs.coeff == lhs.left.func_lipschitz):
            return f"right side must scale by the Lipschitz constant {lhs.left.func_lipschitz}"
        chain = _dist_chain(rhs.body)
        if chain is None or len(chain) != len(lhs.left.args):
            return "right side must be lambda_F * (sum of coordinate distances)"
        for dnode, x, y in zip(chain, lhs.left.args, lhs.right.args):
            if dnode.left != x or dnode.right != y:
                return "coordinate distances do not match the function arguments"
        return None
    if tag == "A21":
        if not (
            isinstance(lhs, Sum)
            and isinstance(lhs.left, Rel)
            and isinstance(lhs.right, Scale)
            and lhs.right.coeff == -1
            and isinstance(lhs.right.body, Rel)
            and lhs.left.rel == lhs.right.body.rel
        ):
            return "left side must be R(xs) - R(ys)"
        if not (isinstance(rhs, Scale) and rhs.coeff == lhs.left.rel_lipschitz):
            return f"right side must scale by the Lipschitz constant {lhs.left.rel_lipschitz}"
        chain = _dist_chain(rhs.body)
        if chain is None or len(chain) != len(lhs.left.args):
            return "right side must be lambda_R * (sum of coordinate distances)"
        for dnode, x, y in zip(chain, lhs.left.args, lhs.right.body.args):
            if dnode.left != x or dnode.right != y:
                return "coordinate distances do not match the relation arguments"
        return None
    if tag == "A22":
        if isinstance(rhs, (Rel, Dist)) and lhs == ZERO:
            return None
        if isinstance(lhs, (Rel, Dist)) and isinstance(rhs, One):
            return None
        return "shape mismatch for 0 <= R(xs) <= 1"
    return f"unknown axiom tag {tag}"


def _check_rule(tag: str, concl: Condition, premises: Sequence[Condition], gamma: Sequence[Condition]) -> str | None:
    if tag == "R1":
        if len(premises) != 2:
            return "R1 needs two premises"
        p1, p2 = premises
        if p1.rhs != p2.lhs:
            return "middle formulas of the premises do not match"
        if concl.lhs != p1.lhs or concl.rhs != p2.rhs:
            return "conclusion is not the chained inequality"
        return None
    if tag == "R2":
        if len(premises) != 1:
            return "R2 needs one premise"
        (p,) = premises
        if (
            isinstance(concl.lhs, Sum)
            and isinstance(concl.rhs, Sum)
            and concl.lhs.left == p.lhs
            and concl.rhs.left == p.rhs
            and concl.lhs.right == concl.rhs.right
        ):
            return None
        return "conclusion is not premise-plus-theta on both sides"
    if tag == "R3":
        if len(premises) != 2:
            return "R3 needs two premises (sign premise first)"
        sign, p = premises
        if not (
            isinstance(concl.lhs, Scale)
            and isinstance(concl.rhs, Scale)
            and concl.lhs.coeff == concl.rhs.coeff
        ):
            return "conclusion sides must scale by the same rational"
        r = concl.lhs.coeff
        if sign.lhs != ZERO or sign.rhs != numeral(r):
            return f"first premise must be the sign premise 0 <= {r}"
        if concl.lhs.body != p.lhs or concl.rhs.body != p.rhs:
            return "scaled bodies do not match the second premise"
        return None
    if tag == "R4":
        if len(premises) != 1:
            return "R4 needs one premise"
        (p,) = premises
        if not (
            isinstance(concl.lhs, Sup)
            and isinstance(concl.rhs, Sup)
            and concl.lhs.varname == concl.rhs.varname
            and concl.lhs.body == p.lhs
            and concl.rhs.body == p.rhs
        ):
            return "conclusion is not sup_x of the premise"
        x = concl.lhs.varname
        for i, cond in enumerate(gamma):
            if x in cond.free:
                return f"side condition fails: {x} is free in hypothesis {i}"
        return None
    return f"unknown rule tag {tag}"


def check(proof: ProofNode, gamma: Sequence[Condition]) -> CheckResult:
    """Validate a proof tree against hypotheses gamma.

    Returns Valid, or Invalid with the dotted path of the offending node and
    a reason naming the failing shape, side condition or metavariable.
    """

    def walk(node: ProofNode, path: list[int]) -> CheckResult:
        loc = ".".join(map(str, path)) or "root"
        by = node.by
        if by.startswith("hyp:"):
            if node.premises:
                return CheckResult(False, loc, "hypothesis nodes take no premises")
            try:
                i = int(by.split(":", 1)[1])
            except ValueError:
                return CheckResult(False, loc, f"malformed hypothesis reference {by!r}")
            if not 0 <= i < len(gamma):
                return CheckResult(False, loc, f"hypothesis index {i} out of range")
            if gamma[i] != node.concl:
                return CheckResult(False, loc, f"conclusion is not hypothesis {i}")
            return CheckResult(True)
        if by in AXIOM_TAGS:
            if node.premises:
                return CheckResult(False, loc, "axiom nodes take no premises")
            err = _check_axiom(by, node.concl, node.inst)
            if err is not None:
                return CheckResult(False, loc, f"{by}: {err}")
            return CheckResult(True)
        if by in RULE_TAGS:
            for k, prem in enumerate(node.premises):
                sub = walk(prem, path + [k])
                if not sub.valid:
                    return sub
            err = _check_rule(by, node.concl, [q.concl for q in node.premises], gamma)
            if err is not None:
                return CheckResult(False, loc, f"{by}: {err}")
            return CheckResult(True)
        return CheckResult(False, loc, f"unknown justification {by!r}")

    return walk(proof, [])


def normalize_zero_scales(phi: Formula) -> Formula:
    """Collapse every 0*psi subformula to the canonical 0*1.

    Provided as an explicit preprocessing step; the checker itself never
    normalizes.
    """
    if isinstance(phi, Scale):
        if phi.coeff == 0:
            return ZERO
        return Scale(phi.coeff, normalize_zero_scales(phi.body))
    if isinstance(phi, Sum):
        return Sum(normalize_zero_scales(phi.left), normalize_zero_scales(phi.right))
    if isinstance(phi, Sup):
        return Sup(phi.varname, normalize_zero_scales(phi.body))
    if isinstance(phi, Inf):
        return Inf(phi.varname, normalize_zero_scales(phi.body))
    return phi


@dataclass
class ProbeViolation:
    structure_index: int
    margin: Fraction


@dataclass
class ProbeReport:
    checked: int  # structures satisfying the hypotheses
    skipped: int  # structures not satisfying the hypotheses
    violations: list[ProbeViolation]

    @property
    def sound(self) -> bool:
        return not self.violations


def soundness_probe(
    proof: ProofNode,
    gamma: Sequence[Condition],
    family: Sequence[FiniteStructure],
    p: int = 1,
) -> ProbeReport:
    """Empirical soundness check of a Valid proof.

    On every family member satisfying all hypotheses (open conditions are
    closed universally over assignments), the conclusion must hold with
    margin >= 0; any violation indicates a checker bug and is reported.
    """
    result = check(proof, gamma)
    if not result.valid:
        raise ValueError(f"probe requires a valid proof: {result.path}: {result.reason}")
    checked = skipped = 0
    violations: list[ProbeViolation] = []
    for i, m in enumerate(family):
        if all(holds_universally(m, c, p)[0] for c in gamma):
            checked += 1
            holds, margin = holds_universally(m, proof.concl, p)
            if not holds:
                violations.append(ProbeViolation(i, margin))
        else:
            skipped += 1
    return ProbeReport(checked, skipped, violations)
