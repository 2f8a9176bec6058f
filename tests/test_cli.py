import json
import time

import pytest

from loopcheck.catalog import parse_loop_file, write_loop_file
from loopcheck.cli import main
from loopcheck.table import cyclic_group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_builtin(capsys):
    code, out, _ = run(capsys, "analyze", "example21_dot")
    assert code == 0
    assert "anchor=associative  value=False" in out
    assert "anchor=automorphic  value=False" in out
    assert "size=5040" in out


def test_analyze_file(tmp_path, capsys):
    path = tmp_path / "c6.loop"
    path.write_text(write_loop_file(cyclic_group(6)))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "value=True" in out


def test_analyze_json_lines(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "analyze", "c5")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(
        set(r) == {"kind", "level", "loops", "witness", "anchor", "data"}
        for r in records
    )
    kinds = {r["kind"] for r in records}
    assert {"loop", "predicate", "group-size", "condition"} <= kinds


def test_analyze_aut_of_elementary_abelian_32(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "analyze", "c2xc2xc2xc2xc2")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    sizes = {r["anchor"]: r["data"]["size"] for r in records if r["kind"] == "group-size"}
    assert sizes["aut"] == 9_999_360  # |GL(5, 2)|


def test_analyze_c64(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "analyze", "c64")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    sizes = {r["anchor"]: r["data"]["size"] for r in records if r["kind"] == "group-size"}
    assert sizes == {"mlt": 64, "inn": 1, "aut": 32}


@pytest.mark.parametrize("name", ["c65", "c0", "c64xc64"])
def test_analyze_builtin_out_of_range(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", name)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# frozen text of `loopcheck analyze c1`: every degree-1 path, byte for byte
ANALYZE_C1 = (
    "[info] loop  loops=c1  identity=1 order=1\n"
    "[info] predicate  loops=c1  anchor=commutative  value=True\n"
    "[info] predicate  loops=c1  anchor=associative  value=True\n"
    "[info] predicate  loops=c1  anchor=flexible  value=True\n"
    "[info] predicate  loops=c1  anchor=aaip  value=True\n"
    "[info] predicate  loops=c1  anchor=power-associative  value=True\n"
    "[info] predicate  loops=c1  anchor=uniquely-2-divisible  value=True\n"
    "[info] predicate  loops=c1  anchor=automorphic  value=True\n"
    "[info] group-size  loops=c1  anchor=mlt  size=1\n"
    "[info] group-size  loops=c1  anchor=inn  size=1\n"
    "[info] group-size  loops=c1  anchor=aut  size=1\n"
    "[info] condition  loops=c1  anchor=co1  value=True\n"
    "[info] condition  loops=c1  anchor=co2  value=True\n"
    "[info] condition  loops=c1  anchor=theorem31  value=True\n"
)


def test_analyze_order_one(capsys):
    code, out, _ = run(capsys, "analyze", "c1")
    assert code == 0
    assert out == ANALYZE_C1


def test_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.loop"
    path.write_text("loop 2 broken\n1 1\n2 2\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_unknown_builtin(capsys):
    code, _, err = run(capsys, "analyze", "nosuchloop")
    assert code == 2


def test_halfiso_classify_example(capsys):
    code, out, _ = run(capsys, "halfiso", "example21_star", "example21_dot")
    assert code == 0  # nontrivial maps exist but the target is not automorphic
    assert "trivial=False" in out
    assert "special=False" in out
    assert "(3, 2, 6)" in out
    assert "count=6" in out


@pytest.mark.parametrize("flags", [["--mode", "pruned"], ["--classify"],
                                   ["--enumerate", "--audit"]])
def test_halfiso_takes_one_task(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["halfiso", "c5", "c5", *flags])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_halfiso_enumerate(capsys):
    code, out, _ = run(capsys, "halfiso", "c5", "c5", "--enumerate")
    assert code == 0
    assert out.count("halfiso-map") == 4
    assert "(1, 2, 3, 4, 5)" in out


def test_halfiso_audit(capsys):
    code, out, _ = run(capsys, "halfiso", "c7", "example21_star", "--audit")
    assert code == 0
    assert "audit-summary" in out
    assert "half_isomorphisms=6" in out


def test_halfiso_audit_unmet(capsys):
    code, out, _ = run(capsys, "halfiso", "c7", "example21_dot", "--audit")
    assert code == 0
    assert "hypotheses-not-met" in out
    assert "target-not-automorphic" in out


def test_identity_builtins_pipe_into_check(tmp_path, capsys):
    code, out, _ = run(capsys, "identity", "builtins")
    assert code == 0
    assert out.startswith("let R_inv(y, x) := y / x")
    ids = tmp_path / "builtins.ids"
    ids.write_text(out)
    code, out, _ = run(capsys, "identity", "check", str(ids), "c5")
    assert code == 0
    assert "identity-counterexample" not in out
    assert "lemma31_a" in out


def test_identity_check_counterexample(tmp_path, capsys):
    ids = tmp_path / "one.ids"
    ids.write_text("comm: x * y = y * x\n")
    code, out, _ = run(capsys, "identity", "check", str(ids), "example21_dot")
    assert code == 1
    assert "identity-counterexample" in out
    assert "('x', 2), ('y', 3)" in out


def test_identity_check_inverse_error(tmp_path, capsys):
    ids = tmp_path / "aaip.ids"
    ids.write_text("aaip: (x * y)^-1 = y^-1 * x^-1\n")
    code, out, _ = run(capsys, "identity", "check", str(ids), "example21_dot")
    assert code == 1
    assert "evaluation-error" in out


def test_generate_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "loops"
    code, out, _ = run(capsys, "generate", "--order", "4", "--out", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.loop"))
    assert len(files) == 2
    for path in files:
        L = parse_loop_file(path.read_text())
        assert L.order == 4


def test_generate_filtered(capsys):
    code, out, _ = run(capsys, "generate", "--order", "5",
                       "--filter", "automorphic")
    assert code == 0
    assert out.count("loop-generated") == 1


def test_papercheck_small(capsys):
    code, out, _ = run(capsys, "papercheck", "--max-order", "4")
    assert code == 0
    assert out.count("[info] criterion ") == 10
    assert "passed=True" in out
    assert "passed=False" not in out


def test_papercheck_json(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "papercheck",
                       "--max-order", "3")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    crits = [r for r in records if r["kind"] == "criterion"]
    assert [c["data"]["number"] for c in crits] == list(range(1, 11))
    assert all(c["data"]["passed"] for c in crits)
    # no wall-clock field, so two runs print the same bytes
    assert all(set(c["data"]) == {"number", "title", "passed"} for c in crits)


def test_order_mismatch_is_io_error(capsys):
    code, _, err = run(capsys, "halfiso", "c5", "c7")
    assert code == 2
    assert "equal orders" in err


def test_generate_over_cap(capsys):
    code, _, err = run(capsys, "generate", "--order", "9")
    assert code == 2


@pytest.mark.parametrize("order", ["0", "-3"])
def test_generate_order_below_one(capsys, order):
    code, out, err = run(capsys, "generate", "--order", order)
    assert code == 2
    assert out == ""
    assert err == f"error: exhaustive generation takes an order from 1 to 7; got {order}\n"


@pytest.mark.parametrize("max_order", ["0", "-2", "7"])
def test_papercheck_max_order_out_of_range(capsys, max_order):
    code, out, err = run(capsys, "papercheck", "--max-order", max_order)
    assert code == 2
    assert out == ""
    assert err == f"error: papercheck takes a max order from 1 to 6; got {max_order}\n"


@pytest.mark.parametrize("order, classes", [(2, 1), (4, 2), (6, 1)])
def test_generate_even_order_co1_classes_are_commutative(capsys, order, classes):
    # no non-commutative automorphic loop of even order <= 6 satisfies co1
    code, out, _ = run(capsys, "--format", "json-lines", "generate", "--order", str(order),
                       "--filter", "automorphic", "--filter", "co1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    generated = [r["data"] for r in records if r["kind"] == "loop-generated"]
    assert len(generated) == classes
    assert all(d["commutative"] and d["automorphic"] and d["co1"] for d in generated)


def test_identity_check_parse_error(tmp_path, capsys):
    ids = tmp_path / "broken.ids"
    ids.write_text("x * = y\n")
    code, _, err = run(capsys, "identity", "check", str(ids), "c3")
    assert code == 2
    assert err.count("column") == 1


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["halfiso"])
    assert exc.value.code == 2


def test_analyze_order_zero_file(tmp_path, capsys):
    path = tmp_path / "empty.loop"
    path.write_text("loop 0\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "Traceback" not in err


def test_identity_check_deep_nesting(tmp_path, capsys):
    ids = tmp_path / "deep.ids"
    ids.write_text("(" * 400 + "x" + ")" * 400 + " = x\n")
    code, _, err = run(capsys, "identity", "check", str(ids), "c3")
    assert code == 2
    assert "nesting too deep" in err


def macro_chain(levels):
    # each level squares the expanded size of the level below
    lines = ["let f0(u) := u * u"]
    lines += [f"let f{i}(u) := f{i - 1}(f{i - 1}(u))" for i in range(1, levels + 1)]
    return "\n".join(lines + [f"f{levels}(x) = x"]) + "\n"


def test_identity_check_huge_expansion(tmp_path, capsys):
    ids = tmp_path / "chain.ids"
    ids.write_text(macro_chain(3))  # 511 nodes expanded; x^256 = x in c3
    assert run(capsys, "identity", "check", str(ids), "c3")[0] == 0
    for levels in (5, 6):
        ids.write_text(macro_chain(levels))
        start = time.perf_counter()
        code, _, err = run(capsys, "identity", "check", str(ids), "c3")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "term too large" in err
