"""The ``python -m repro`` CLI: plan / run / explain on the built-in example
and on a JSON workload file.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_run_example(capsys) -> None:
    assert main(["run", "--example"]) == 0
    output = capsys.readouterr().out
    assert "Italy" in output
    assert "fast_fail" in output


@pytest.mark.parametrize("strategy", ["naive", "fast_fail", "distillation"])
def test_run_json_all_strategies(capsys, strategy) -> None:
    assert main(["run", "--example", "--strategy", strategy, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answers"] == [["Italy"]]
    assert payload["strategy"] == strategy


def test_run_stream(capsys) -> None:
    assert main(["run", "--example", "--stream", "--latency", "0.05"]) == 0
    output = capsys.readouterr().out
    assert "('Italy',)" in output
    assert "1 answers streamed" in output


def test_stream_rejects_non_streaming_strategy(capsys) -> None:
    assert main(["run", "--example", "--stream", "--strategy", "naive"]) == 2
    assert "does not support streaming" in capsys.readouterr().err


def test_stream_json(capsys) -> None:
    assert main(["run", "--example", "--stream", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"row": ["Italy"], "simulated_time": payload[0]["simulated_time"]}]


def test_plan_prints_datalog(capsys) -> None:
    assert main(["plan", "--example"]) == 0
    output = capsys.readouterr().out
    assert "datalog program:" in output
    assert "r1_hat_1" in output


def test_explain_json(capsys) -> None:
    assert main(["explain", "--example", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answerable"] is True
    assert payload["irrelevant_relations"] == ["r3"]
    assert payload["ordering"]["unique"] is True


def test_workload_file(tmp_path, capsys) -> None:
    workload = {
        "relations": {
            "free": {"pattern": "oo", "domains": ["A", "B"]},
            "r": {"pattern": "io", "domains": ["B", "C"]},
        },
        "tuples": {
            "free": [["a1", "b1"], ["a2", "b2"]],
            "r": [["b1", "c1"], ["b2", "c2"], ["bX", "cX"]],
        },
        "query": "q(C) <- free(A, B), r(B, C)",
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))
    assert main(["run", "--workload", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["answers"]) == [["c1"], ["c2"]]


def test_custom_query_overrides_workload_default(capsys) -> None:
    assert main(["run", "--example", "--json", "q(Y2) <- r2('volare', Y2, A)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answers"] == [[1958]]


def test_bad_query_exits_2(capsys) -> None:
    assert main(["run", "--example", "q(X) <- nosuch(X)"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_missing_source_exits_2(capsys) -> None:
    assert main(["run", "q(X) <- r(X)"]) == 2


def test_run_scenario_with_backend(capsys) -> None:
    assert main(
        ["run", "--scenario", "star:rays=3,width=4", "--backend", "sqlite", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["answers"]) == 4


def test_run_real_concurrency_distillation(capsys) -> None:
    assert main(
        [
            "run",
            "--scenario",
            "diamond:width=4",
            "--backend",
            "callable",
            "--strategy",
            "distillation",
            "--backend-latency",
            "0.002",
            "--concurrency",
            "async",
            "--json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["answers"]) == 4
    assert payload["complete"] is True


def test_removed_thread_pool_mode_is_rejected_by_argparse(capsys) -> None:
    # Two modes remain; ``real`` (and ``--max-workers``) went with the
    # thread-pool dispatcher, so argparse refuses them like any bad choice.
    for argv in (
        ["run", "--example", "--concurrency", "real"],
        ["run", "--example", "--max-workers", "4"],
        ["workload", "--mix", "star", "--concurrency", "real"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    assert "invalid choice: 'real'" in capsys.readouterr().err


def test_run_empty_branch_under_both_access_orders(capsys) -> None:
    accesses = {}
    for optimizer in ("structural", "cost"):
        argv = ["run", "--scenario", "empty-branch", "--optimizer", optimizer, "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answers"] == [] and payload["complete"]
        assert "optimizer" not in payload
        accesses[optimizer] = payload["total_accesses"]
    assert accesses == {"structural": 145, "cost": 17}
    with pytest.raises(SystemExit):
        main(["run", "--scenario", "empty-branch", "--optimizer", "voodoo"])
    assert "invalid choice: 'voodoo'" in capsys.readouterr().err


def test_unknown_scenario_is_a_clean_error(capsys) -> None:
    assert main(["run", "--scenario", "moebius"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_workload_subcommand_replays_mixed_stream(capsys) -> None:
    assert main(["workload", "--mix", "star,chain", "--repeat", "2", "--max-parallel", "4"]) == 0
    output = capsys.readouterr().out
    assert "answers verified: ok" in output
    assert "meta hits" in output and "hit rate" in output


def test_workload_subcommand_json(capsys) -> None:
    assert (
        main(
            [
                "workload",
                "--mix",
                "star,diamond",
                "--backend",
                "sqlite",
                "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["queries"] == 4
    assert payload["total_accesses"] > 0
    assert payload["meta_hits"] >= payload["total_accesses"]
    assert len(payload["per_query"]) == 4


def test_workload_subcommand_rejects_unknown_scenario(capsys) -> None:
    assert main(["workload", "--mix", "star,moebius"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_with_injected_faults_reports_completeness(capsys) -> None:
    # Faults + default retries: the run returns (exit 0) and the JSON tells
    # the truth about completeness either way.
    assert main(
        [
            "run",
            "--scenario",
            "chaos:width=6,rays=2",
            "--fail",
            "rate=0.3,seed=11",
            "--json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload["complete"], bool)
    assert payload["retry_stats"]["attempts"] >= payload["total_accesses"]
    if not payload["complete"]:
        assert payload["termination"] == "source_failure"
        assert payload["failed_relations"]


def test_run_fail_shorthand_rate_and_explicit_retries(capsys) -> None:
    assert main(
        [
            "run",
            "--scenario",
            "star:rays=2,width=4",
            "--fail",
            "0.2",
            "--retries",
            "3",
            "--timeout",
            "5.0",
            "--json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["retry_stats"]["failures"] == 0 or not payload["complete"]


def test_bad_fail_spec_is_a_clean_error(capsys) -> None:
    assert main(["run", "--example", "--fail", "rate=lots"]) == 2
    assert "--fail" in capsys.readouterr().err
    assert main(["run", "--example", "--fail", "bogus_key=1"]) == 2
    assert "known keys" in capsys.readouterr().err


def test_workload_under_faults_verifies_completeness_contract(capsys) -> None:
    assert main(
        [
            "workload",
            "--mix",
            "star,chaos",
            "--repeat",
            "2",
            "--fail",
            "rate=0.3,seed=7",
            "--retries",
            "2",
            "--json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    # Complete results matched their expected answers (verified=true); any
    # fault casualties are counted, not hidden.
    assert payload["verified"] is True
    assert payload["incomplete_results"] >= 0
    for per_query in payload["per_query"]:
        assert isinstance(per_query["complete"], bool)
