"""Unroller tests: Eq. 1 semantics, prefix stability, provenance, COI."""

import itertools

import pytest

from repro.circuit import Circuit, GateOp, words
from repro.encode import Unroller
from repro.sat import CdclSolver
from tests.conftest import brute_force_sat


def toggle_circuit():
    """q toggles when en; property: q is never 1 at the same time as en=...
    simply G !bad where bad = q AND en."""
    c = Circuit("toggle")
    en = c.add_input("en")
    q = c.add_latch("q", init=0)
    c.set_next(q, c.g_xor(q, en))
    bad = c.g_and(q, en)
    prop = c.g_not(bad, name="prop")
    return c, en, q, prop


class TestBasicSemantics:
    def test_depth0_checks_initial_state(self):
        c, en, q, prop = toggle_circuit()
        unroller = Unroller(c, prop)
        instance = unroller.instance(0)
        # at frame 0, q=0 so bad requires en... bad = 0&en = 0: UNSAT? No:
        # bad = q & en = 0 at frame 0 regardless -> prop holds -> UNSAT.
        outcome = CdclSolver(instance.formula).solve()
        assert outcome.is_unsat

    def test_depth1_finds_violation(self):
        c, en, q, prop = toggle_circuit()
        unroller = Unroller(c, prop)
        instance = unroller.instance(1)
        outcome = CdclSolver(instance.formula).solve()
        # en=1 at frame 0 makes q=1 at frame 1; en=1 at frame 1 -> bad.
        assert outcome.is_sat
        assert instance.value_of(outcome.model, q, 1) == 1
        assert instance.value_of(outcome.model, en, 1) == 1

    def test_property_clause_is_last(self):
        c, _, _, prop = toggle_circuit()
        unroller = Unroller(c, prop)
        instance = unroller.instance(2)
        assert instance.property_clause_index == instance.formula.num_clauses - 1
        origin = instance.origin_of(instance.property_clause_index)
        assert origin.kind == "property"
        assert origin.frame == 2
        assert origin.net == prop

    def test_init_clauses_present(self):
        c, _, q, prop = toggle_circuit()
        instance = Unroller(c, prop).instance(0)
        init_origins = [o for o in instance.origins if o.kind == "init"]
        assert len(init_origins) == 1
        assert init_origins[0].net == q

    def test_unconstrained_latch_has_no_init_clause(self):
        c = Circuit()
        q = c.add_latch("q", init=None)
        c.set_next(q, q)
        prop = c.g_not(q)
        instance = Unroller(c, prop).instance(0)
        assert not any(o.kind == "init" for o in instance.origins)
        # Depth 0 is SAT: the latch may start at 1 (violating !q... prop=!q
        # so violation needs q=1 at frame 0).
        outcome = CdclSolver(instance.formula).solve()
        assert outcome.is_sat
        assert instance.decode_initial_state(outcome.model)[q] == 1


class TestPrefixStability:
    def test_lits_stable_across_instances(self):
        c, en, q, prop = toggle_circuit()
        u = Unroller(c, prop)
        early = u.instance(2)
        late = u.instance(6)
        for net in range(c.num_nets):
            for frame in range(3):
                assert early.lit_of(net, frame) == late.lit_of(net, frame)

    def test_clause_prefix_stable(self):
        c, _, _, prop = toggle_circuit()
        u = Unroller(c, prop)
        i2 = u.instance(2)
        i4 = u.instance(4)
        shared = i2.formula.num_clauses - 1  # all but the property clause
        for index in range(shared):
            assert tuple(i2.formula.clause(index)) == tuple(i4.formula.clause(index))

    def test_instances_identical_regardless_of_build_order(self):
        c, _, _, prop = toggle_circuit()
        u1 = Unroller(c, prop)
        u1.instance(6)  # build deep first
        downward = u1.instance(3)
        u2 = Unroller(c, prop)
        upward = u2.instance(3)
        assert downward.formula.num_vars == upward.formula.num_vars
        assert [tuple(x) for x in downward.formula.clauses] == [
            tuple(x) for x in upward.formula.clauses
        ]

    def test_latch_variable_sharing(self):
        # lit(latch, f+1) must literally be lit(next_net, f).
        c, en, q, prop = toggle_circuit()
        u = Unroller(c, prop)
        instance = u.instance(3)
        next_net = c.next_of(q)
        for frame in range(3):
            assert instance.lit_of(q, frame + 1) == instance.lit_of(next_net, frame)

    def test_not_gates_are_free(self):
        c = Circuit()
        a = c.add_input("a")
        n = c.g_not(a)
        u = Unroller(c, n)
        instance = u.instance(0)
        assert instance.lit_of(n, 0) == instance.lit_of(a, 0) ^ 1


class TestAgainstBruteForce:
    def test_bmc_equals_exhaustive_simulation(self, rng):
        """For random small circuits, SAT at depth k iff some input
        sequence violates the property at frame k."""
        for trial in range(12):
            c = Circuit("rnd")
            ins = [c.add_input(f"i{j}") for j in range(2)]
            latches = [c.add_latch(f"l{j}", init=rng.randint(0, 1)) for j in range(2)]
            pool = list(ins) + latches
            for _ in range(8):
                op = rng.choice(["g_and", "g_or", "g_xor", "g_not"])
                if op == "g_not":
                    pool.append(c.g_not(rng.choice(pool)))
                else:
                    pool.append(getattr(c, op)(rng.choice(pool), rng.choice(pool)))
            for latch in latches:
                c.set_next(latch, rng.choice(pool))
            prop = rng.choice(pool)
            u = Unroller(c, prop)
            for k in range(3):
                outcome = CdclSolver(u.instance(k).formula).solve()
                found = False
                for seq in itertools.product(range(4), repeat=k + 1):
                    vectors = [{ins[0]: s & 1, ins[1]: (s >> 1) & 1} for s in seq]
                    frames = c.simulate(vectors)
                    if frames[k][prop] == 0:
                        found = True
                        break
                assert found == outcome.is_sat, f"trial {trial} depth {k}"


class TestConeOfInfluence:
    def make_two_cone(self):
        c = Circuit()
        ia, ib = c.add_input("ia"), c.add_input("ib")
        a = c.add_latch("a", init=0)
        b = c.add_latch("b", init=0)
        c.set_next(a, c.g_xor(a, ia))
        c.set_next(b, c.g_xor(b, ib))
        prop = c.g_not(a, name="prop")
        return c, a, b, prop

    def test_coi_prunes_unrelated_logic(self):
        c, a, b, prop = self.make_two_cone()
        full = Unroller(c, prop, use_coi=False).instance(3)
        pruned = Unroller(c, prop, use_coi=True).instance(3)
        assert pruned.formula.num_vars < full.formula.num_vars
        assert pruned.formula.num_clauses < full.formula.num_clauses

    def test_coi_excluded_nets_unencoded(self):
        c, a, b, prop = self.make_two_cone()
        pruned = Unroller(c, prop, use_coi=True)
        pruned.instance(1)
        with pytest.raises(KeyError):
            pruned.lit_of(b, 0)

    def test_coi_preserves_answers(self):
        c, a, b, prop = self.make_two_cone()
        for k in range(4):
            full = CdclSolver(Unroller(c, prop, use_coi=False).instance(k).formula).solve()
            pruned = CdclSolver(Unroller(c, prop, use_coi=True).instance(k).formula).solve()
            assert full.is_sat == pruned.is_sat


class TestVarFrames:
    def test_var_frames_recorded(self):
        c, en, q, prop = toggle_circuit()
        u = Unroller(c, prop)
        instance = u.instance(2)
        assert u.var_frame(0) == -1  # the constant
        for frame in range(3):
            lit = instance.lit_of(en, frame)
            assert u.var_frame(lit >> 1) == frame

    def test_negative_depth_rejected(self):
        c, _, _, prop = toggle_circuit()
        with pytest.raises(ValueError):
            Unroller(c, prop).instance(-1)

    def test_bad_property_net_rejected(self):
        c, _, _, _ = toggle_circuit()
        with pytest.raises(ValueError):
            Unroller(c, 10**6)

    def test_frame_out_of_range_rejected(self):
        c, en, _, prop = toggle_circuit()
        instance = Unroller(c, prop).instance(1)
        with pytest.raises(ValueError):
            instance.lit_of(en, 5)


def _per_clause_assembly(unroller, k):
    """The instance as it was assembled before slice sharing: every
    clause re-validated through ``CnfFormula.add_clause``."""
    from repro.cnf import CnfFormula
    from repro.cnf.literals import lit_neg
    from repro.encode.unroll import ClauseOrigin

    num_clauses = unroller.clause_watermark(k)
    formula = CnfFormula(unroller.var_watermark(k))
    for index in range(num_clauses):
        formula.add_clause(unroller.clauses_since(index, index + 1)[0][0])
    origins = [unroller.origin_of_clause(i) for i in range(num_clauses)]
    prop_index = formula.add_clause(
        [lit_neg(unroller.lit_of(unroller.property_net, k))]
    )
    origins.append(ClauseOrigin("property", unroller.property_net, k))
    return formula, origins, prop_index


class TestSliceAssembly:
    @pytest.mark.parametrize("row", ["01_b", "03_b", "17_1_b2"])
    def test_instance_equals_per_clause_assembly(self, row):
        from repro.workloads import instance_by_name

        circuit, prop = instance_by_name(row).build()
        unroller = Unroller(circuit, prop)
        reference = Unroller(circuit, prop)
        for k in range(0, 10):
            instance = unroller.instance(k)
            formula, origins, prop_index = _per_clause_assembly(reference, k)
            assert instance.formula.num_vars == formula.num_vars
            assert instance.formula.clauses == formula.clauses
            assert instance.origins == origins
            assert instance.property_clause_index == prop_index
            sliced, sliced_origins = unroller.formula_up_to(k)
            assert sliced.num_vars == formula.num_vars
            assert sliced.clauses == formula.clauses[:prop_index]
            assert sliced_origins == origins[:prop_index]

    def test_instances_do_not_alias_each_other(self):
        c, _, _, prop = toggle_circuit()
        unroller = Unroller(c, prop)
        first = unroller.instance(2)
        clauses = first.formula.clauses
        unroller.instance(3)
        first.formula.add_clause([0])
        assert unroller.instance(2).formula.clauses == clauses

    def test_corrupt_frame_clause_is_rejected(self, monkeypatch):
        import repro.encode.unroll as unroll

        c, _, _, prop = toggle_circuit()
        real = unroll.gate_clauses

        def corrupt(op, out_var, fanin_lits):
            clauses = list(real(op, out_var, fanin_lits))
            clauses.append((2 * (out_var + 1000),))
            return clauses

        monkeypatch.setattr(unroll, "gate_clauses", corrupt)
        with pytest.raises(ValueError, match="references variable"):
            Unroller(c, prop).instance(0)
