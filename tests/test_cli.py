import json
import re
import time

import pytest

from cutfair import repro
from cutfair.allocation import Allocation
from cutfair.cli import main
from cutfair.instances import gen_fig3, write_allocation, write_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_emits_json(capsys):
    code, out, err = run(capsys, "solve", "--label", "fig3:d=3", "--goal", "ef1-wts")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"] == "fig3:d=3"
    assert doc["guarantee_achieved"] == "EF1+wTS"
    assert len(doc["bundles"]) == 3
    assert sorted(v for b in doc["bundles"] for v in b) == list(range(5))
    assert "EF1+wTS" in err


def test_solve_infeasible_goal_exits_2(capsys):
    code, out, err = run(capsys, "solve", "--label", "fig3:d=3", "--goal", "ef1-ts")
    assert code == 2
    assert "infeasible" in err


def test_solve_quiet_and_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run(
        capsys, "solve", "--label", "cycle:6", "--quiet", "--out", str(target)
    )
    assert code == 0
    assert out == "" and err == ""
    assert json.loads(target.read_text())["n"] == 2


def test_solve_agent_override(capsys):
    code, out, _ = run(capsys, "solve", "--label", "cycle:6", "-n", "3", "--quiet")
    assert code == 0
    assert json.loads(out)["n"] == 3
    code, _, err = run(capsys, "solve", "--label", "cycle:6", "-n", "0")
    assert code == 2


def test_check_pass_and_fail(capsys, tmp_path):
    inst = gen_fig3(3)
    inst_path = tmp_path / "inst.txt"
    write_instance(inst, inst_path)
    alloc_path = tmp_path / "alloc.json"
    write_allocation(Allocation.of([{0, 4}, {1}, {2, 3}]), alloc_path)
    code, out, _ = run(
        capsys, "check", "--file", str(inst_path), "--alloc", str(alloc_path),
        "--pred", "ef1,wts,nonempty",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(rep["holds"] for rep in doc["reports"])
    code, out, _ = run(
        capsys, "check", "--file", str(inst_path), "--alloc", str(alloc_path),
        "--pred", "ef,ts",
    )
    assert code == 1


def test_check_rejects_foreign_vertices(capsys, tmp_path):
    inst_path = tmp_path / "inst.txt"
    write_instance(gen_fig3(3), inst_path)
    alloc_path = tmp_path / "alloc.json"
    write_allocation(Allocation.of([{0, 99}]), alloc_path)
    code, _, err = run(
        capsys, "check", "--file", str(inst_path), "--alloc", str(alloc_path)
    )
    assert code == 2
    assert "outside the instance" in err


def test_check_unknown_predicate(capsys, tmp_path):
    inst_path = tmp_path / "inst.txt"
    write_instance(gen_fig3(3), inst_path)
    alloc_path = tmp_path / "alloc.json"
    write_allocation(Allocation.of([{0}]), alloc_path)
    code, _, err = run(
        capsys, "check", "--file", str(inst_path), "--alloc", str(alloc_path),
        "--pred", "bogus",
    )
    assert code == 2
    assert "unknown predicates" in err


def test_oracle_witness_and_absence(capsys):
    code, out, _ = run(capsys, "oracle", "--label", "fig3:d=3", "--pred", "ef1,wts")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "witness"
    assert len(doc["witness"]) == 3
    code, out, _ = run(capsys, "oracle", "--label", "fig3:d=3", "--pred", "ef1,ts")
    assert code == 1
    assert json.loads(out)["verdict"] == "absent"


def test_oracle_count_mode(capsys):
    code, out, _ = run(
        capsys, "oracle", "--label", "fig3:d=3", "--pred", "ef1", "--count"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == 75


def test_oracle_complete_partial(capsys):
    code, out, _ = run(capsys, "oracle", "--label", "appendixA", "--complete-partial")
    assert code == 1
    assert json.loads(out)["verdict"] == "not-completable"
    code, _, err = run(capsys, "oracle", "--label", "fig1", "--complete-partial")
    assert code == 2
    assert "no partial allocation" in err


def test_oracle_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("FAIRDIV_MAX_STATES", "10")
    code, _, err = run(capsys, "oracle", "--label", "fig3:d=3", "--pred", "ef1")
    assert code == 2
    assert "exceed the cap" in err


@pytest.mark.parametrize("n", ["21", "22"])
def test_oracle_answers_po_with_many_bundles(capsys, n):
    """Sorted value vectors of 21 or 22 bundles on K4 are no bar to PO."""
    code, out, _ = run(capsys, "oracle", "--label", "complete:4", "-n", n, "--pred", "ef1,po")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "witness"
    assert doc["witness"] == [[0], [1], [2], [3]] + [[]] * (int(n) - 4)


def test_gen_round_trip(capsys, tmp_path):
    target = tmp_path / "inst.txt"
    code, _, _ = run(capsys, "gen", "--label", "fig3:d=5", "--out", str(target))
    assert code == 0
    from cutfair.instances import read_instance

    assert read_instance(target).graph.num_edges == 10
    code, out, _ = run(capsys, "gen", "--label", "fig3:d=5")
    assert code == 0
    assert out == target.read_text()
    code, out, _ = run(capsys, "gen", "--label", "path:3")
    assert code == 0
    assert "p fairdiv 3 2 2" in out


def test_repro_single_criterion(capsys):
    code, out, _ = run(capsys, "repro", "--only", "11")
    assert code == 0
    assert "criterion 11 PASS" in out


def test_repro_verdicts_end_with_the_elapsed_time(capsys):
    """Every criterion's line ends with its elapsed time in seconds, and the
    criteria's times sum to at most the whole run's."""
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "repro")
    total = time.perf_counter() - t0
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == len(repro.CRITERIA)
    times = [re.fullmatch(r"criterion +\d+ PASS .* \[(\d+\.\d\d)s\]", line) for line in lines]
    assert all(times), lines
    assert sum(float(t[1]) for t in times) <= total + 0.01 * len(lines)


def test_unknown_label_and_bad_args(capsys):
    code, _, err = run(capsys, "solve", "--label", "nope")
    assert code == 2
    assert main(["solve"]) == 2
    assert main([]) == 2
    assert main(["solve", "--help"]) == 0


def test_repro_only_matches_the_exact_criterion(capsys):
    code, out, _ = run(capsys, "repro", "--only", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("criterion  1 PASS")
    code, out, _ = run(capsys, "repro", "--only", "criterion_9")
    assert code == 0
    assert [line.split()[1] for line in out.strip().splitlines()] == ["9"]
    code, _, err = run(capsys, "repro", "--only", "12")
    assert code == 2
    assert "no criterion" in err


def test_solve_infeasible_goal_writes_one_json_line(capsys):
    code, out, err = run(capsys, "solve", "--label", "fig3:d=3", "--goal", "ef1-ts")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "infeasible" in json.loads(lines[0])["error"]


def test_value_error_inside_a_solver_is_an_internal_error(capsys, monkeypatch):
    def broken(g, n, goal):
        raise ValueError("solver bug")

    monkeypatch.setattr("cutfair.cli.dispatch_solve", broken)
    code, _, err = run(capsys, "solve", "--label", "cycle:6")
    assert code == 3
    assert "solver bug" in err


def test_input_errors_exit_2_with_one_error_line(capsys, tmp_path):
    alloc_path = tmp_path / "alloc.json"
    write_allocation(Allocation.of([{0, 4}, {1}]), alloc_path)
    # bundles whose entries are not integer vertex ids, or list one twice
    bad_paths = []
    for k, bundles in enumerate(([["a"], [1]], [[0.5], [1]], [[True], [1]], "01", [0, 1], [[0, 0], [1]])):
        bad_paths.append(tmp_path / f"bad{k}.json")
        bad_paths[-1].write_text(json.dumps({"bundles": bundles}))
    unwritable = str(tmp_path / "missing" / "x.json")
    for argv in (
        ("solve", "--label", "cycle:6", "-n", "0"),
        ("solve", "--label", "cycle:6", "-n", "7"),
        ("oracle", "--label", "fig3:d=3", "--pred", "alpha_ef1", "--alpha", "1/0", "--count"),
        ("oracle", "--label", "fig3:d=3", "--pred", "alpha_ef1", "--alpha", "3", "--count"),
        ("check", "--label", "fig3:d=3", "--alloc", str(alloc_path), "--pred", "alpha_ef1", "--alpha", "3"),
        ("check", "--label", "fig3:d=3", "--alloc", str(alloc_path), "--pred", "ts"),
        *(("check", "--label", "fig3:d=3", "--alloc", str(path)) for path in bad_paths),
        ("oracle", "--label", "fig3:d=3", "--out", unwritable),
        # 2**64 labelled states overflow the kernel's indices, whatever the cap
        ("oracle", "--label", "path:64", "-n", "2", "--pred", "ef1", "--max-states", str(2**70)),
        ("solve", "--label", "fig3:d=3", "--out", unwritable),
        ("gen", "--label", "fig3:d=3", "--out", unwritable),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)


def test_malformed_agent_counts_exit_2(capsys, tmp_path):
    inst_path = tmp_path / "inst.txt"
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"n": 3, "bundles": [[0, 1], [2]]}))
    for agents in (0, -1):
        inst_path.write_text(f"p fairdiv 3 2 {agents}\ne 1 2\ne 2 3\n")
        for argv in (("solve",), ("oracle",), ("oracle", "--count")):
            code, out, err = run(capsys, *argv, "--file", str(inst_path))
            assert code == 2, (agents, argv)
            assert out == "" and "agent count" in err, (agents, argv)
    code, out, err = run(capsys, "check", "--label", "path:3", "--alloc", str(alloc_path))
    assert code == 2
    assert out == "" and "2 bundles" in err


def test_bad_max_states_environment_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("FAIRDIV_MAX_STATES", "abc")
    code, out, err = run(capsys, "oracle", "--label", "fig3:d=3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "FAIRDIV_MAX_STATES" in err
    # an explicit --max-states does not read the environment
    code, out, _ = run(capsys, "oracle", "--label", "fig3:d=3", "--max-states", "1000")
    assert code == 0


def test_negative_max_states_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run(capsys, "oracle", "--label", "cycle:6", "-n", "3", "--max-states", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "--max-states" in err and "exceed the cap" not in err
    monkeypatch.setenv("FAIRDIV_MAX_STATES", "-5")
    code, out, err = run(capsys, "oracle", "--label", "cycle:6", "-n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "FAIRDIV_MAX_STATES" in err and "exceed the cap" not in err
