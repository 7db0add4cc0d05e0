"""Unit tests for operation descriptors and proxies."""

import pickle

import pytest

from repro.runtime.ops import (SPIN_FAILED, Invocation, ObjectProxy, SpinOp,
                               indexed_proxy, spin, wait_until)


class TestInvocation:
    def test_fields(self):
        inv = Invocation("mem", "write", (1, "v"))
        assert inv.obj == "mem"
        assert inv.method == "write"
        assert inv.args == (1, "v")

    def test_repr_is_call_like(self):
        assert repr(Invocation("mem", "write", (1, "v"))) == \
            "mem.write(1, 'v')"

    def test_hashable_and_frozen(self):
        inv = Invocation("a", "b", ())
        assert inv in {inv}
        with pytest.raises(AttributeError):
            inv.obj = "c"


class TestObjectProxy:
    def test_builds_invocations(self):
        mem = ObjectProxy("mem")
        inv = mem.write(3, 10)
        assert inv == Invocation("mem", "write", (3, 10))

    def test_no_args(self):
        assert ObjectProxy("m").snapshot() == Invocation("m", "snapshot", ())

    def test_private_attributes_raise(self):
        with pytest.raises(AttributeError):
            ObjectProxy("m")._private

    def test_one_proxy_per_name_pickled_by_name(self):
        mem = ObjectProxy("mem")
        assert mem.write(3, 10) == mem.write(3, 10)
        assert ObjectProxy("mem") is mem
        assert ObjectProxy("other") is not mem
        assert pickle.loads(pickle.dumps(mem)) is mem

    def test_indexed_proxy_naming(self):
        p = indexed_proxy("x_cons", 3)
        assert p.name == "x_cons[3]"
        assert p.propose(9).obj == "x_cons[3]"


class TestSpin:
    def test_spin_constructor(self):
        inv = Invocation("m", "read", (0,))
        op = spin(inv, lambda v: v == 1, period=3)
        assert isinstance(op, SpinOp)
        assert op.invocation is inv
        assert op.period == 3

    def test_spin_failed_singleton(self):
        assert SPIN_FAILED is type(SPIN_FAILED)()
        assert repr(SPIN_FAILED) == "<SPIN_FAILED>"

    def test_wait_until_loops_until_satisfied(self):
        gen = wait_until(lambda: Invocation("m", "read", (0,)),
                         lambda v: v == "ok")
        op = next(gen)
        assert isinstance(op, SpinOp)
        op2 = gen.send(SPIN_FAILED)           # failed -> re-yields
        assert isinstance(op2, SpinOp)
        with pytest.raises(StopIteration) as stop:
            gen.send("ok")
        assert stop.value.value == "ok"

    def test_wait_until_fresh_invocation_each_round(self):
        counter = iter(range(100))
        gen = wait_until(lambda: Invocation("m", "read", (next(counter),)),
                         lambda v: False)
        first = next(gen)
        second = gen.send(SPIN_FAILED)
        assert first.invocation.args != second.invocation.args
