"""AIGER parser/writer tests."""

import itertools

import pytest

from repro.circuit import Circuit, aiger_str, parse_aiger
from repro.circuit.aiger import AigerError


TOGGLE_AAG = """\
aag 3 1 1 1 1
2
4 6 0
4
6 2 4
c
a toggle flop: q' = en AND q is wrong; here q' = en & q for demo
"""


class TestParse:
    def test_header_and_counts(self):
        c = parse_aiger(TOGGLE_AAG)
        assert len(c.inputs) == 1
        assert len(c.latches) == 1
        assert len(c.outputs) == 1

    def test_and_semantics(self):
        c = parse_aiger(TOGGLE_AAG)
        en = c.inputs[0]
        q = c.latches[0]
        frames = c.simulate([{en: 1}, {en: 1}, {en: 0}], initial_state={q: 1})
        # q' = en & q with q0=1: stays 1 while en=1... frame values:
        assert frames[0][q] == 1

    def test_inverted_literals(self):
        text = "aag 2 1 0 1 1\n2\n5\n4 2 3\n"  # o0 = !(i0 & !i0... )
        c = parse_aiger(text)
        i0 = c.inputs[0]
        out = c.outputs["o0"]
        for v in (0, 1):
            frames = c.simulate([{i0: v}])
            # and = i0 & !i0 = 0; output = !and = 1
            assert frames[0][out] == 1

    def test_constants(self):
        text = "aag 1 0 0 2 1\n1\n2\n2 0 1\n"  # and(false, true) = 0; outputs: !0=1, and=0
        c = parse_aiger(text)
        frames = c.simulate([{}])
        assert frames[0][c.outputs["o0"]] == 1
        assert frames[0][c.outputs["o1"]] == 0

    def test_latch_default_init_zero(self):
        text = "aag 2 1 1 1 0\n2\n4 2\n4\n"
        c = parse_aiger(text)
        assert c.init_of(c.latches[0]) == 0

    def test_latch_explicit_init(self):
        text = "aag 2 1 1 1 0\n2\n4 2 1\n4\n"
        c = parse_aiger(text)
        assert c.init_of(c.latches[0]) == 1

    def test_latch_uninitialized(self):
        text = "aag 2 1 1 1 0\n2\n4 2 4\n4\n"  # init == own literal
        c = parse_aiger(text)
        assert c.init_of(c.latches[0]) is None

    def test_bad_header_rejected(self):
        with pytest.raises(AigerError):
            parse_aiger("not aiger\n")
        with pytest.raises(AigerError):
            parse_aiger("aag 1 2\n")

    def test_odd_input_literal_rejected(self):
        with pytest.raises(AigerError):
            parse_aiger("aag 1 1 0 0 0\n3\n")

    def test_undefined_literal_rejected(self):
        with pytest.raises(AigerError):
            parse_aiger("aag 3 1 0 1 0\n2\n6\n")

    def test_truncated_body_rejected(self):
        with pytest.raises(AigerError):
            parse_aiger("aag 2 1 0 1 1\n2\n")


class TestWriteRoundtrip:
    def _equivalent(self, c1, c2, cycles=5):
        inputs1, inputs2 = c1.inputs, c2.inputs
        assert len(inputs1) == len(inputs2)
        for pattern in itertools.product((0, 1), repeat=min(len(inputs1), 3)):
            vec1 = [dict(zip(inputs1, itertools.cycle(pattern)))] * cycles
            vec2 = [dict(zip(inputs2, itertools.cycle(pattern)))] * cycles
            f1, f2 = c1.simulate(vec1), c2.simulate(vec2)
            for name, net1 in c1.outputs.items():
                values1 = [f[net1] for f in f1]
                # Writer renames outputs o0, o1, ... in insertion order.
                index = list(c1.outputs).index(name)
                net2 = c2.outputs[f"o{index}"]
                values2 = [f[net2] for f in f2]
                assert values1 == values2, f"output {name} diverges"

    def test_all_gate_ops_roundtrip(self):
        c1 = Circuit("gates")
        a, b, s = c1.add_input("a"), c1.add_input("b"), c1.add_input("s")
        c1.set_output("and", c1.g_and(a, b))
        c1.set_output("or", c1.g_or(a, b))
        c1.set_output("nand", c1.g_nand(a, b))
        c1.set_output("nor", c1.g_nor(a, b))
        c1.set_output("xor", c1.g_xor(a, b))
        c1.set_output("xnor", c1.g_xnor(a, b))
        c1.set_output("mux", c1.g_mux(s, a, b))
        c1.set_output("not", c1.g_not(a))
        c1.set_output("buf", c1.g_buf(a))
        c2 = parse_aiger(aiger_str(c1))
        self._equivalent(c2=c2, c1=c1)

    def test_sequential_roundtrip(self):
        c1 = Circuit("seq")
        en = c1.add_input("en")
        q = c1.add_latch("q", init=1)
        c1.set_next(q, c1.g_xor(q, en))
        c1.set_output("q_out", c1.g_buf(q))
        c2 = parse_aiger(aiger_str(c1))
        self._equivalent(c1, c2)

    def test_constants_roundtrip(self):
        c1 = Circuit("k")
        c1.set_output("t", c1.const(1))
        c2 = parse_aiger(aiger_str(c1))
        frames = c2.simulate([{}])
        assert frames[0][c2.outputs["o0"]] == 1

    def test_uninitialized_latch_roundtrip(self):
        c1 = Circuit("u")
        q = c1.add_latch("q", init=None)
        c1.set_next(q, q)
        c1.set_output("o", q)
        c2 = parse_aiger(aiger_str(c1))
        assert c2.init_of(c2.latches[0]) is None


class TestMutationRobustness:
    """Seeded byte-level mutants of one Table-1 circuit: a mutant is
    either parsed (and then survives a write/parse round trip) or
    rejected with :class:`AigerError` — never a raw ``ValueError``,
    ``IndexError`` or the like."""

    def test_badly_formed_integer_tokens(self):
        for bad in ("aag 3 1 1 1 1\n2\n4 6 0\n4\n6 2 4a\n",
                    "aag 3 1 1 1 1\n2\n4 6x 0\n4\n6 2 4\n",
                    "aag 3 1 1 1 1\n+2\n4 6 0\n4\n6 2 4\n",
                    "aag 3 1 1 1 1\n2\n4 6 0\n-4\n6 2 4\n",
                    "aag 3 1 1 1 1z\n2\n4 6 0\n4\n6 2 4\n"):
            with pytest.raises(AigerError):
                parse_aiger(bad)

    def test_seeded_byte_mutants_fail_cleanly(self):
        import random

        from repro.workloads import instance_by_name

        circuit, _ = instance_by_name("01_b").build()
        text = aiger_str(circuit).encode()
        rng = random.Random(20040607)
        accepted = rejected = 0
        for _ in range(600):
            data = bytearray(text)
            for _ in range(rng.randint(1, 4)):
                pos = rng.randrange(len(data))
                op = rng.randrange(3)
                if op == 0:
                    data[pos] = rng.randrange(256)
                elif op == 1:
                    del data[pos]
                else:
                    data.insert(pos, rng.randrange(256))
            try:
                parsed = parse_aiger(bytes(data).decode("latin-1"))
            except AigerError:
                rejected += 1
                continue
            accepted += 1
            parse_aiger(aiger_str(parsed)).validate()
        assert accepted and rejected
