import json
import time

import pytest

from edgepow import BudgetError, corpus, cycle, search_sep_counterexample
from edgepow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def unbuilt(n):
    raise AssertionError("corpus built for a refused scan")


def test_delta_c6pend(capsys):
    code, out, _ = run(capsys, "delta", "fixture:c6pend", "--caps", "1,2,1,1,1,1,1")
    assert code == 0 and out.strip() == "3"


def test_delta_c4twopath(capsys):
    code, out, _ = run(capsys, "delta", "template:c4twopath", "--caps", "3,1,3,1,3,3,3,3")
    assert code == 0 and out.strip() == "8"


def test_delta_k2(capsys, tmp_path):
    p = tmp_path / "k2.json"
    p.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    code, out, _ = run(capsys, "delta", str(p), "--caps", "1,1")
    assert code == 0 and out.strip() == "1"


def test_gens_json(capsys):
    code, out, _ = run(
        capsys, "gens", "template:c3pathpend", "--caps", "1,1,1,2,1,1,1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == 3 and len(data["members"]) == 6


def test_check_strong_fail_exit_2(capsys):
    code, out, _ = run(
        capsys, "check", "fixture:c5star", "--caps", "1,1,1,1,1,1,1,1", "--strong", "--json"
    )
    assert code == 2
    data = json.loads(out)
    assert data["verdict"] == "fail"
    missing = data["witness"]["missing"]
    # the moved monomial is always divisible by x6*x7*x8 here
    assert missing[5] >= 1 and missing[6] >= 1 and missing[7] >= 1


def test_check_strong_pass_exit_0(capsys):
    code, out, _ = run(capsys, "check", "cycle:5", "--caps", "1,1,1,1,1", "--strong")
    assert code == 0 and "pass" in out


def test_check_veronese_modes(capsys):
    code, out, _ = run(capsys, "check", "star:3", "--caps", "1,2,1,3", "--veronese")
    assert code == 0 and "base=" in out
    code, out, _ = run(
        capsys, "check", "cycle:8", "--caps", "2,1,2,1,1,1,2,1", "--veronese"
    )
    assert code == 2 and out.strip() == "none"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "template:c3path3")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "sep": True,
        "rule": "unicyclic(iv)(2)",
        "detail": {"path_at": 1},
    }


def test_classify_registered_fixture(capsys):
    code, out, _ = run(capsys, "classify", "fixture:cyc8")
    assert code == 0
    assert json.loads(out) == {"sep": False, "rule": "cycle(>=8)", "detail": {"n": 8}}


def test_over_limit_spec_exits_1_with_one_line(capsys):
    code, out, err = run(capsys, "delta", "cycle:500000", "--caps", "1,1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "limit" in err and err.count("\n") == 1


def test_over_limit_graph_file_exits_1_with_one_line(capsys, tmp_path):
    n = 300_001
    p = tmp_path / "big.json"
    p.write_text(
        json.dumps({"n": n, "edges": [[i, i + 1] for i in range(1, n)] + [[1, n]]})
    )
    code, out, err = run(capsys, "delta", str(p), "--caps", "1,1")
    assert code == 1 and out == ""
    assert err == (
        f"error: graph would have {n} vertices and {n} edges; "
        "the limit is 200000 of each\n"
    )


def test_search_threads_is_a_usage_error(capsys):
    code, out, _ = run(capsys, "search", "cycle:5", "--threads", "2")
    assert code == 1 and out == ""
    code, out, _ = run(capsys, "search", "cycle:10", "--cap-max", "3", "--json")
    assert code == 2
    assert json.loads(out)["counterexample"] == [1, 1, 1, 1, 1, 1, 1, 2, 1, 2]


def test_budget_reaches_scan_conjecture(capsys):
    code, out, err = run(capsys, "--budget", "1", "scan-conjecture", "--max-n", "4")
    assert code == 1 and out == ""
    assert err == "error: node budget 1 exhausted\n"
    code, out, _ = run(capsys, "--budget", "1", "search", "cycle:4")
    assert code == 1 and out == ""


def test_search_modes(capsys):
    code, out, _ = run(capsys, "search", "path:7", "--cap-max", "2")
    assert code == 2 and "counterexample" in out
    code, out, _ = run(capsys, "search", "path:6", "--cap-max", "2")
    assert code == 0 and out.strip() == "none"
    code, out, _ = run(capsys, "search", "cycle:8", "--cap-max", "2", "--json")
    assert code == 2 and json.loads(out)["counterexample"] is not None


def test_repro_single_and_unknown(capsys):
    code, out, _ = run(capsys, "repro", "final-example")
    assert code == 0 and "pass" in out
    code, _, err = run(capsys, "repro", "nope")
    assert code == 1 and "unknown fixture" in err


def test_repro_all_json(capsys):
    code, out, _ = run(capsys, "repro", "--all", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) >= 20 and all(entry["ok"] for entry in data)


def test_scan_conjecture_small(capsys):
    code, out, _ = run(capsys, "scan-conjecture", "--max-n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["clean"] is True and data["instances"] > 0


def test_scan_conjecture_refuses_oversized_scan_before_building(capsys, monkeypatch):
    monkeypatch.setattr(corpus, "unicyclic_up_to", unbuilt)

    def refused(max_n, cap_max, message):
        start = time.perf_counter()
        argv = ("--max-n", str(max_n), "--cap-max", str(cap_max), "--json")
        code, out, err = run(capsys, "scan-conjecture", *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    # the grid bound comes before the engine's 32 vertices, as in the search
    for max_n, cap_max, message in (
        (33, 2, "grid of 8589934592 cap vectors exceeds the limit 2000000"),
        (21, 2, "grid of 2097152 cap vectors exceeds the limit 2000000"),
        (14, 3, "grid of 4782969 cap vectors exceeds the limit 2000000"),
        (33, 1, "enumeration is limited to 32 vertices, got 33"),
    ):
        with pytest.raises(ValueError if cap_max == 1 else BudgetError) as search:
            search_sep_counterexample(cycle(max_n), cap_max)
        assert str(search.value) == message
        refused(max_n, cap_max, message)
    # each graph's grid passes, but the corpus's cap vectors in all do not;
    # the sum stops at the first vertex count past the limit
    for max_n, cap_max, total, top in (
        (11, 2, 4522376, 11),
        (20, 2, 4522376, 11),
        (9, 3, 5390901, 9),
        (18, 1, 3861222, 18),
        (32, 1, 3861222, 18),
    ):
        refused(
            max_n,
            cap_max,
            f"scan of {total} cap vectors over the unicyclic graphs on 3..{top} "
            "vertices exceeds the limit 2000000",
        )


def test_scan_conjecture_refuses_vacuous_bounds(capsys, monkeypatch):
    monkeypatch.setattr(corpus, "unicyclic_up_to", unbuilt)
    for argv, message in (
        (("--max-n", "5", "--cap-max", "0", "--json"), "cap_max must be >= 1, got 0"),
        (("--max-n", "2", "--m-max", "1"), "m_max must be >= 2, got 1"),
        (
            ("--max-n", "2", "--json"),
            "max_n must be >= 3 (no unicyclic graph is smaller), got 2",
        ),
        (("--max-n", "-4"), "max_n must be >= 3 (no unicyclic graph is smaller), got -4"),
    ):
        code, out, err = run(capsys, "scan-conjecture", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


def test_bad_inputs_exit_1(capsys):
    code, _, err = run(capsys, "delta", "cycle:2", "--caps", "1,1")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "delta", "cycle:4", "--caps", "1,1")
    assert code == 1 and "cap vector" in err
    code, _, err = run(capsys, "delta", "nosuchfile.json", "--caps", "1,1")
    assert code == 1
    # argparse usage errors exit 1 too; 2 means "counterexample found"
    for argv in (
        ("search", "cycle:5", "--cap-max", "x"),
        ("search", "cycle:5", "--bogus"),
        ("delta", "cycle:5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        last = err.splitlines()[-1]
        assert err.startswith("usage: edgepow")
        assert last.startswith("edgepow") and ": error: " in last


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "search", "--help")
    assert code == 0 and out.startswith("usage: edgepow")


def test_graph_file_validation_message(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 2], [2, 3]]}))
    code, _, err = run(capsys, "delta", str(p), "--caps", "1,1,1")
    assert code == 1 and "edges[1]" in err and "duplicate" in err
