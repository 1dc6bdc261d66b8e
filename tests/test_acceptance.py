"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS/FAIL line (run with -s to see them inline).  The
criteria are randomized at desk scale with fixed seeds, so runs are
reproducible.

Criterion 7 is implemented twice: once exactly as stated (two-point
rendez-vous sentences on circle-vs-sphere discretizations), which fails
because the two spaces provably share both two-point values (lower =
diameter/2 by the triangle inequality, upper = sqrt(2)/2 in the chord
normalization), with the discretized values differing only by quantization
noise; and once as a qualitative reproduction at three points, where the
spaces genuinely differ by about 0.03 > 1/64.  See the notes in each test.
"""

import random
import time
from fractions import Fraction


from affinelogic.pra import (
    algebra,
    algebras_up_to,
    as_formula,
    oracle_table,
    pra_signature,
    qe,
    structure_from_algebra,
)
from affinelogic.proofs import check, soundness_probe
from affinelogic.satisfiability import NotSeparable, Sat, Unsat, sat_over_family, separate
from affinelogic.spaces import circle, sphere
from affinelogic.structures import (
    check_condition,
    eval_formula,
    rendezvous_sentences,
    rendezvous_value,
    validate,
)
from affinelogic.syntax import (
    Condition,
    Min,
    Signature,
    Sup,
    Theory,
    affine_combination,
    alpha_equal_condition,
    parse_formula,
    relation_symbol,
)
from affinelogic.typespace import (
    logic_distance,
    make_basis,
    norm_distance,
    realized_types,
    type_polytope,
)
from affinelogic.ultramean import fubini, powermean, ultramean, uniform_charge

from helpers import (
    rand_affine_formula,
    rand_charge,
    rand_family,
    rand_sentence,
    rand_signature,
    rand_structure,
)
from proof_helpers import (
    mutate_proof,
    rand_axiom_node,
    rand_rule_node,
    zero_scalar_derivation,
)

def report(n, verdict, detail):
    print(f"criterion {n}: {verdict} - {detail}")


def test_criterion_01_ultramean_identity():
    """1,000 random families/charges/formulas: exact mean-value identity."""
    rng = random.Random(101)
    start = time.time()
    for case in range(1000):
        sig = rand_signature(rng)
        family = rand_family(rng, sig, 3, 4)
        mu = rand_charge(rng, len(family))
        mean = ultramean(family, mu)
        free = ["x", "y"][: rng.randint(0, 2)]
        phi = rand_affine_formula(rng, sig, free, 2, 12)
        mean_asg = {}
        member_asgs = [dict() for _ in family]
        for v in sorted(phi.free):
            tup = tuple(rng.choice(m.points) for m in family)
            mean_asg[v] = mean.class_point(tup)
            for i, a in enumerate(tup):
                member_asgs[i][v] = a
        lhs = eval_formula(mean.structure, phi, mean_asg)
        rhs = sum(
            (
                mu.weight(i) * eval_formula(m, phi, asg)
                for i, m, asg in zip(mu.ids, family, member_asgs)
            ),
            Fraction(0),
        )
        assert lhs == rhs, f"case {case}: {lhs} != {rhs}"
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime budget exceeded: {elapsed:.1f}s"
    report(1, "PASS", f"1000 exact identities in {elapsed:.1f}s")


def test_criterion_02_convex_combination_sentence_law():
    """sigma^(M/2 + N/2) = (sigma^M + sigma^N) / 2, exactly, 100 times."""
    rng = random.Random(102)
    half_half = uniform_charge(["i0", "i1"])
    for _ in range(100):
        sig = rand_signature(rng)
        m1 = rand_structure(rng, sig, 4)
        m2 = rand_structure(rng, sig, 4)
        sigma = rand_sentence(rng, sig, 2, 10)
        mean = ultramean([m1, m2], half_half)
        assert eval_formula(mean.structure, sigma) == (
            eval_formula(m1, sigma) + eval_formula(m2, sigma)
        ) / 2
    report(2, "PASS", "100 half/half sentence identities, exact")


def test_criterion_03_powermean_composition():
    """(M^mu)^nu and M^(mu x nu) agree on sentences, exactly, 100 times."""
    rng = random.Random(103)
    for _ in range(100):
        sig = rand_signature(rng)
        m = rand_structure(rng, sig, 3)
        mu = rand_charge(rng, rng.randint(1, 2))
        nu = rand_charge(rng, rng.randint(1, 2))
        iterated = powermean(powermean(m, mu).structure, nu)
        combined = powermean(m, fubini(mu, nu))
        sigma = rand_sentence(rng, sig, 2, 10)
        assert eval_formula(iterated.structure, sigma) == eval_formula(
            combined.structure, sigma
        )
    report(3, "PASS", "100 composition identities, exact")


def test_criterion_04_lp_duality_completeness():
    """500 (theory, family) instances: exactly one verdict, both re-verified."""
    rng = random.Random(104)
    sats = unsats = 0
    for _ in range(500):
        sig = rand_signature(rng)
        family = rand_family(rng, sig, 3, 3)
        conds = [
            Condition(rand_sentence(rng, sig, 1, 6), rand_sentence(rng, sig, 1, 6))
            for _ in range(rng.randint(1, 3))
        ]
        theory = Theory(tuple(conds))
        verdict = sat_over_family(theory, family, verify=False)
        if isinstance(verdict, Sat):
            sats += 1
            mean = ultramean(family, verdict.charge)
            for c in conds:
                holds, margin = check_condition(mean.structure, c)
                assert holds and margin >= 0
        else:
            assert isinstance(verdict, Unsat)
            unsats += 1
            assert verdict.margin > 0
            combined = affine_combination(
                [(conds[j], w) for j, w in verdict.certificate]
            )
            for m in family:
                _, margin = check_condition(m, combined)
                assert margin <= -verdict.margin
    assert sats and unsats  # both verdicts must actually occur
    report(4, "PASS", f"500 instances: {sats} sat / {unsats} unsat, all certified")


def test_criterion_05_pra_qe_correctness():
    """200 random quantified formulas agree with the oracle on the k<=3 grid."""
    from test_pra import _random_quantified

    rng = random.Random(105)
    start = time.time()
    grid = algebras_up_to(3, 4)
    closed_seen = 0
    for _ in range(200):
        phi = _random_quantified(rng, nvars=3, prefix=2, close=rng.random() < 0.4)
        out = qe(phi)
        if not phi.free:
            closed_seen += 1
            assert out.is_constant
        free = sorted(phi.free)
        check = as_formula(out)
        for alg in grid:
            assert oracle_table(phi, alg, free) == oracle_table(check, alg, free)
    elapsed = time.time() - start
    assert closed_seen > 30
    assert elapsed < 120, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        5,
        "PASS",
        f"200 formulas ({closed_seen} closed, all constant) on {len(grid)} algebras "
        f"in {elapsed:.1f}s",
    )


def test_criterion_06_pra_type_space_reproduction():
    """The 8-atom uniform algebra reproduces the one-variable type space."""
    sig = pra_signature()
    m = structure_from_algebra(algebra([Fraction(1, 8)] * 8))
    basis = make_basis(["x"], [parse_formula("mu(x)", sig)], [m])

    types = realized_types(m, basis)
    values = sorted(tv.values[0] for tv in types)
    assert values == [Fraction(k, 8) for k in range(9)]

    poly = type_polytope([m], basis)
    assert sorted(tv.values[0] for tv in poly.vertices) == [0, 1]

    by_value = {tv.values[0]: tv for tv in types}
    for i in range(9):
        for j in range(9):
            got = logic_distance(
                by_value[Fraction(i, 8)], by_value[Fraction(j, 8)], m, basis
            )
            assert got == Fraction(abs(i - j), 8)

    two = make_basis(
        ["x"],
        [parse_formula("mu(x)", sig), parse_formula("2*mu(x) + -1*1", sig)],
        [m],
    )
    two_types = {tv.values[0]: tv for tv in realized_types(m, two)}
    for i in range(9):
        for j in range(9):
            got = norm_distance(two_types[Fraction(i, 8)], two_types[Fraction(j, 8)], two)
            assert got == 2 * Fraction(abs(i - j), 8)
    report(6, "PASS", "realized values, vertices, logic and norm metrics all exact")


# Regression constants for the rendez-vous computations (exhaustive, exact).
CIRCLE64_N2 = (Fraction(1, 2), Fraction(2899, 4096))
SPHERE64_N2 = (Fraction(1, 2), Fraction(2897, 4096))
CIRCLE64_N3 = (Fraction(293, 512), Fraction(1039, 1536))
SPHERE64_N3 = (Fraction(2365, 4096), Fraction(8699, 12288))
SLACK = Fraction(1, 64)


def test_criterion_07_rendezvous_separation_as_stated():
    """As stated (n = 2) this criterion cannot hold; see the ledger.

    Lower values: both spaces contain antipodal pairs, and for any pair
    inf_y (d(x1,y)+d(x2,y))/2 = d(x1,x2)/2 exactly (triangle inequality,
    attained at y = x1), so both lower values are diameter/2 = 1/2 exactly.
    Upper values: for a pair at angle g the best y gives cos(g/4) under the
    chord normalization on the circle AND on the sphere, so both continuum
    values are cos(pi/4) = sqrt(2)/2; the discretized numbers below differ by
    2/4096, far below any honest discretization slack.  The classical
    circle-vs-sphere separation concerns the rendez-vous numbers (the Gross
    values, reached as the point count grows), which two-point sentences do
    not approximate; the smallest separating count is n = 3, covered by the
    companion test.
    """
    c64 = circle(64, "chord")
    s64 = sphere(64)
    cv = rendezvous_value(c64, 2)
    sv = rendezvous_value(s64, 2)
    assert cv == CIRCLE64_N2 and sv == SPHERE64_N2  # regression constants
    gap = max(abs(sv[0] - cv[0]), abs(sv[1] - cv[1]))
    report(
        7,
        "FAIL (unattainable as stated at n=2)",
        f"two-point values circle={tuple(map(str, cv))} sphere={tuple(map(str, sv))}: "
        f"gap {gap} = {float(gap):.5f} is not above the discretization slack "
        f"{SLACK} = {float(SLACK):.5f}",
    )
    assert gap > SLACK, (
        "two-point rendez-vous values of the circle and sphere coincide up to "
        "quantization noise; no discretization can separate them at n=2 "
        "(see this test's docstring)"
    )


def test_criterion_07_rendezvous_separation_qualitative_n3():
    """Qualitative reproduction: the spaces separate at n = 3.

    The three-point inf-sup value of the 64-gon is 1039/1536 ~ 0.6764 (the
    continuum circle gives 2/3) while the 64-point sphere gives 8699/12288 ~
    0.7079; the gap ~ 0.0315 exceeds the 1/64 slack.  `separate` with the
    three-point inf-sup sentence as basis finds the corresponding basic
    condition on affordable 12/14-point discretizations.
    """
    c64 = circle(64, "chord")
    s64 = sphere(64)
    assert rendezvous_value(c64, 3) == CIRCLE64_N3
    assert rendezvous_value(s64, 3) == SPHERE64_N3
    gap = SPHERE64_N3[1] - CIRCLE64_N3[1]
    assert gap > SLACK

    _, infsup = rendezvous_sentences(3)
    fam_circle = [circle(12, "chord")]
    fam_sphere = [sphere(14)]
    result = separate(fam_circle, fam_sphere, [infsup])
    assert not isinstance(result, NotSeparable)
    assert result.s - result.r > SLACK
    for m in fam_circle:
        assert eval_formula(m, infsup) <= result.r
    for m in fam_sphere:
        assert eval_formula(m, infsup) >= result.s
    report(
        7,
        "PASS (qualitative, n=3)",
        f"64-point value gap {gap} = {float(gap):.4f} > 1/64; separation "
        f"r={result.r} < s={result.s} found and re-verified",
    )


def test_criterion_08_proof_checker():
    """Worked derivation validates; random instances validate and probe sound;
    fuzzing never smuggles in an unsound conclusion."""
    rng = random.Random(108)

    proof, gamma = zero_scalar_derivation(Fraction(3))
    assert check(proof, gamma).valid
    proof0, gamma0 = zero_scalar_derivation(Fraction(0))
    assert check(proof0, gamma0).valid
    probe_family = [rand_structure(rng, Signature.metric_only()) for _ in range(20)]
    assert soundness_probe(proof0, gamma0, probe_family).sound

    for _ in range(200):
        sig = rand_signature(rng)
        node = rand_rule_node(rng, sig) if rng.random() < 0.4 else rand_axiom_node(rng, sig)
        result = check(node, [])
        assert result.valid, (node.by, result.reason)
        family = [rand_structure(rng, sig, 3) for _ in range(20)]
        probe = soundness_probe(node, [], family)
        assert probe.sound and probe.checked == 20

    rejected = accepted_alpha = accepted_sound = 0
    for _ in range(200):
        sig = rand_signature(rng)
        base = rand_rule_node(rng, sig) if rng.random() < 0.5 else rand_axiom_node(rng, sig)
        mutant = mutate_proof(rng, base)
        result = check(mutant, [])
        if not result.valid:
            rejected += 1
        elif alpha_equal_condition(mutant.concl, base.concl):
            accepted_alpha += 1
        else:
            # a different but still schema-valid instance: must be sound
            family = [rand_structure(rng, sig, 3) for _ in range(6)]
            assert soundness_probe(mutant, [], family).sound
            accepted_sound += 1
    assert rejected > 100
    report(
        8,
        "PASS",
        f"derivation + 200 instances (all probe-sound) + 200 mutants "
        f"({rejected} rejected, {accepted_alpha} alpha-equal, "
        f"{accepted_sound} valid-and-sound re-instances)",
    )


def test_criterion_09_non_affine_counterexample():
    """A concrete min-sentence violating the mean identity."""
    sig = Signature([relation_symbol("P", 1, 0), relation_symbol("Q", 1, 0)])
    from affinelogic.structures import make_structure

    m1 = make_structure(["a"], {}, relations={"P": {("a",): 0}, "Q": {("a",): 1}})
    m2 = make_structure(["a"], {}, relations={"P": {("a",): 1}, "Q": {("a",): 0}})
    sigma = Min(Sup("x", parse_formula("P(x)", sig)), Sup("x", parse_formula("Q(x)", sig)))
    mu = uniform_charge(["i0", "i1"])
    mean = ultramean([m1, m2], mu)
    mean_value = eval_formula(mean.structure, sigma)
    weighted = (eval_formula(m1, sigma) + eval_formula(m2, sigma)) / 2
    assert not sigma.affine
    assert mean_value == Fraction(1, 2) and weighted == 0
    assert mean_value != weighted
    report(
        9,
        "PASS",
        f"min(sup P, sup Q): mean value {mean_value} != weighted members {weighted}",
    )


def test_criterion_10_lp_power_mode():
    """p = 2: distance atoms square exactly; means validate on stored squares."""
    rng = random.Random(110)
    atom = parse_formula("d(x,y)", Signature.metric_only())
    for _ in range(60):
        sig = rand_signature(rng)
        m = rand_structure(rng, sig, 4)
        a, b = rng.choice(m.points), rng.choice(m.points)
        assert eval_formula(m, atom, {"x": a, "y": b}, p=2) == m.d(a, b) ** 2

    checked = 0
    for _ in range(25):
        sig = rand_signature(rng)
        family = rand_family(rng, sig, 2, 3)
        mu = rand_charge(rng, len(family))
        mean = ultramean(family, mu, p=2)
        assert mean.structure.metric_power == 2
        rep = validate(mean.structure, sig, p=2)
        assert rep.valid, rep.violations[:3]
        checked += 1
        # the stored entries really are the weighted squares
        tuples = list(mean.class_of)
        ta, tb = rng.choice(tuples), rng.choice(tuples)
        expected = sum(
            (
                mu.weight(i) * m.d(x, y) ** 2
                for i, m, x, y in zip(mu.ids, family, ta, tb)
            ),
            Fraction(0),
        )
        assert (
            mean.structure.d(mean.class_point(ta), mean.class_point(tb)) == expected
        )
    report(10, "PASS", f"squared atoms exact; {checked} means pass the p-power checks")
