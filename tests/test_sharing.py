"""Terms that are equal by construction stay one object from parse to print.

Every label of the n-lambda chain restates its return type, so its label
context prints n(n+1)/2 return-type nodes of which only n are distinct: each
type is a suffix of the one before it.  The parser makes each distinct node
once, the renumbering after `defun` keeps the nodes it does not change, and
alpha-equality answers for one node compared with itself without walking it,
so each walk pays per distinct node, not per printed one.
"""

import pytest

from defuncc import kernel, syntax
from defuncc.cli import main
from defuncc.dcc import dcc_infer
from defuncc.defun import Renumbering, defun
from defuncc.surface import emit_text, parse_dcc, parse_source, parse_term
from defuncc.syntax import NAT, App, Ctx, Label, Lam, Pi, Var, _aeq, alpha_eq, children

N = 60


def lambda_chain(n: int) -> str:
    """`fun (x1 : Nat) => ... => fun (xn : Nat) => add x1 xn`."""
    return "".join(f"fun (x{i} : Nat) => " for i in range(1, n + 1)) + f"add x1 x{n}\n"


def distinct_nodes(*roots) -> int:
    """The number of distinct node objects reachable from roots."""
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(children(t))
    return len(seen)


@pytest.fixture(scope="module")
def chain():
    """The 60-lambda chain: its elaborated source and its emitted `.dcc` text."""
    elab = parse_source(lambda_chain(N)).elaborate()
    res = defun(elab.ctx, elab.main)
    return elab, res, emit_text(res.labels, res.dcc_ctx, res.term)


class TestParse:
    def test_equal_subterms_of_one_parse_are_one_object(self):
        t = parse_term("(x : Type 0) -> (f : Nat -> Nat) -> f (add 1 2) -> f (add 1 2)")
        first, second = t.codomain.codomain.domain, t.codomain.codomain.codomain
        assert first is second
        assert first == parse_term("f (add 1 2)")

    def test_no_table_outlives_its_parse(self):
        assert parse_term("add x 1") is not parse_term("add x 1")

    def test_closures_share_their_arguments(self):
        f = parse_dcc("label l0 {a : Nat} (x : Nat) -> Nat := a;\nl0{add 1 2} (l0{add 1 2} 0)")
        assert f.main.fn is f.main.arg.fn

    def test_emitted_chain_holds_one_return_type_node_per_binder(self, chain):
        labels = parse_dcc(chain[2]).labels
        printed = sum(distinct_nodes(e.ret_type) for e in labels)
        assert printed == N * (N + 1) // 2  # each label prints its own copy
        assert distinct_nodes(*(e.ret_type for e in labels)) <= 2 * N


class TestRenumbering:
    def test_labels_keep_the_kernels_shared_return_types(self, chain):
        labels = chain[1].labels
        assert distinct_nodes(*(e.ret_type for e in labels)) <= 2 * N
        # l(k+1) is the lambda inside lk: its return type is lk's codomain
        by_id = {e.label_id: e for e in labels}
        for k in range(N - 1):
            assert by_id[k].ret_type.codomain is by_id[k + 1].ret_type

    def test_a_node_with_no_label_inside_comes_back_as_itself(self):
        ren = Renumbering({0: 1, 1: 0}, [])
        ty = parse_term("(y : Nat) -> Nat -> Nat")
        assert ren.term(ty) is ty
        out = ren.term(App(Label(0, (ty,)), Label(1, ())))
        assert out == App(Label(1, (ty,)), Label(0, ()))
        assert out.fn.args[0] is ty


class TestAlphaEquality:
    def test_one_node_under_crossed_binders_is_not_equal(self):
        v = Var("x")
        a = Lam("x", NAT, Lam("y", NAT, v))
        b = Lam("y", NAT, Lam("x", NAT, v))
        assert not _aeq(a, b, {}, {}, 0)
        assert not alpha_eq(a, b)

    def test_one_node_is_equal_where_its_names_are_bound_alike(self):
        v = Pi("_", Var("x"), Var("z"))
        assert alpha_eq(Lam("x", NAT, v), Lam("x", NAT, v))
        assert _aeq(v, v, {"x": 0}, {"x": 0}, 1)
        assert not _aeq(v, v, {"x": 0}, {}, 1)
        assert not _aeq(v, v, {}, {"z": 0}, 1)
        assert _aeq(v, v, {"y": 0}, {"w": 0}, 1)  # names v does not use

    def test_checkdcc_compares_each_distinct_node_once(self, chain, tmp_path, monkeypatch, capsys):
        path = tmp_path / "lambdas.dcc"
        path.write_text(chain[2])
        calls = []

        def counted(*args):
            calls.append(args)
            return _aeq(*args)

        monkeypatch.setattr(syntax, "_aeq", counted)
        monkeypatch.setattr(kernel, "_aeq", counted)
        assert main(["checkdcc", str(path)]) == 0
        assert capsys.readouterr().out.startswith("label context: ok")
        assert 0 < len(calls) <= 4 * N


def test_a_label_type_keeps_the_entrys_return_type():
    """A closure value that is its own telescope name substitutes nothing,
    so the type of `l0{A}` is built from the entry's own nodes."""
    f = parse_dcc("label l0 {A : Type 0} (x : A) -> A := x;\nl0{A}")
    entry, = f.labels
    ty = dcc_infer(f.labels, Ctx().extend("A", parse_term("Type 0")), f.main)
    assert ty.domain is entry.arg_type and ty.codomain is entry.ret_type
