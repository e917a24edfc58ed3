"""Tests for the command-line interface."""

import datetime as dt

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def calls_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "calls.jsonl"
    code = main([
        "generate-calls", "--n-calls", "60", "--seed", "5",
        "--mos-sample-rate", "0.3", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def posts_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "posts.jsonl"
    code = main([
        "generate-corpus", "--seed", "5", "--start", "2022-01-01",
        "--end", "2022-02-28", "--authors", "300", "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_calls_file_loadable(self, calls_path):
        from repro.telemetry.store import CallDataset

        dataset = CallDataset.from_jsonl(calls_path)
        assert len(dataset) == 60

    def test_corpus_file_loadable(self, posts_path):
        from repro.social.corpus import RedditCorpus

        corpus = RedditCorpus.from_jsonl(posts_path)
        assert len(corpus) > 100
        assert corpus.config.span_start == dt.date(2022, 1, 1)

    def test_corpus_roundtrip_preserves_posts(self, posts_path):
        from repro.social.corpus import RedditCorpus

        corpus = RedditCorpus.from_jsonl(posts_path)
        shares = corpus.speed_shares()
        assert shares and shares[0].speed_test.download_mbps > 0


class TestAnalyze:
    def test_analyze_teams_runs(self, calls_path, capsys):
        code = main(["analyze-teams", "--calls", str(calls_path),
                     "--no-controls", "--min-bin-count", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engagement drop" in out
        assert "latency_ms" in out

    def test_analyze_starlink_runs(self, posts_path, capsys):
        code = main(["analyze-starlink", "--posts", str(posts_path),
                     "--peaks", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top sentiment peaks" in out
        assert "outage-keyword spikes" in out

    def test_analyze_teams_report_mode(self, calls_path, capsys):
        code = main(["analyze-teams", "--calls", str(calls_path),
                     "--min-bin-count", "3", "--report"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Implicit user signals" in out

    def test_analyze_starlink_report_mode(self, posts_path, capsys):
        code = main(["analyze-starlink", "--posts", str(posts_path),
                     "--peaks", "2", "--report"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Explicit user signals" in out

    def test_usaas_runs(self, calls_path, posts_path, capsys):
        code = main([
            "usaas", "--calls", str(calls_path), "--posts", str(posts_path),
            "--network", "starlink",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "USaaS digest for starlink" in out


class TestPlanningCommands:
    def test_plan_launches(self, capsys):
        code = main(["plan-launches", "--budget", "1",
                     "--candidates", "2021-7,2022-2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "planned" in out

    def test_tune_mitigation(self, capsys):
        code = main(["tune-mitigation", "--jitter", "14", "--latency", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommendation" in out
        assert "jitter buffer" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestUsageErrors:
    """Every bad argument is one stderr line and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["generate-calls", "--n-calls", "-1"],
        ["generate-calls", "--mos-sample-rate", "2"],
        ["generate-corpus", "--authors", "0"],
        ["usaas", "soak", "--max-pending", "0"],
    ], ids=["negative-calls", "sample-rate", "no-authors", "max-pending"])
    def test_rejected_config_value_exits_2(self, argv, tmp_path, capsys):
        if argv[0].startswith("generate"):
            argv = argv + ["--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["generate-calls", "generate-corpus"])
    @pytest.mark.parametrize("flag", [
        ["--workers", "2"], ["--max-shard-retries", "1"],
        ["--shard-timeout", "30"], ["--resume"],
        ["--checkpoint-dir", "ckpt"], ["--keep-checkpoint"],
    ], ids=lambda flag: flag[0])
    def test_removed_generate_flags_are_usage_errors(self, command, flag,
                                                     tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--out", str(tmp_path / "out.jsonl"), *flag])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()


class TestServingFlags:
    """usaas through the overload-safe serving path (exit-code contract)."""

    def test_generous_deadline_serves_normally(self, calls_path, posts_path,
                                               capsys):
        code = main([
            "usaas", "--calls", str(calls_path), "--posts", str(posts_path),
            "--deadline-s", "300",
        ])
        assert code == 0
        assert "USaaS digest for starlink" in capsys.readouterr().out

    def test_hopeless_deadline_exits_3(self, calls_path, posts_path, capsys):
        code = main([
            "usaas", "--calls", str(calls_path), "--posts", str(posts_path),
            "--deadline-s", "0.000001",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "query not served" in err

    def test_priority_flag_engages_serving_path(self, calls_path, posts_path,
                                                capsys):
        code = main([
            "usaas", "--calls", str(calls_path), "--posts", str(posts_path),
            "--priority", "batch",
        ])
        assert code == 0

    def test_exit_code_contract_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["usaas", "--help"])
        out = capsys.readouterr().out
        assert "exit codes: 0 = served" in out
        assert "2 = hard degradation" in out
        assert "privacy floor" in out
        assert "deadline exceeded" in out

    @pytest.mark.parametrize("serving", [[], ["--deadline-s", "300"]],
                             ids=["direct", "serving"])
    def test_privacy_floor_refusal_exits_2(self, calls_path, tmp_path,
                                           capsys, serving):
        # One call with three participants: the pool is below the
        # 10-user floor however the query is served.
        import json

        for line in calls_path.read_text().splitlines():
            if len(json.loads(line)["participants"]) == 3:
                break
        else:
            pytest.fail("no three-participant call in the fixture")
        one_call = tmp_path / "one_call.jsonl"
        one_call.write_text(line + "\n")
        code = main(["usaas", "--calls", str(one_call)] + serving)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("query refused: ")
        assert "floor is 10" in err
        assert len(err.strip().splitlines()) == 1


class TestUsaasSoak:
    def test_soak_runs_and_reports(self, capsys):
        code = main(["usaas", "soak", "--seed", "7", "--duration-s", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "soak:" in out
        assert "interactive" in out
        assert "drain:" in out

    def test_soak_json_is_seed_deterministic(self, capsys):
        import json

        assert main(["usaas", "soak", "--seed", "9", "--duration-s", "1.0",
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["usaas", "soak", "--seed", "9", "--duration-s", "1.0",
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["submitted"] == (
            first["served"] + first["served_degraded"] + first["shed"]
            + first["deadline_exceeded"] + first["failed"]
        )
        assert first["leftover_pending"] == 0
        assert first["in_flight"] == 0

    def test_soak_different_seed_differs(self, capsys):
        import json

        assert main(["usaas", "soak", "--seed", "9", "--duration-s", "1.0",
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["usaas", "soak", "--seed", "10", "--duration-s", "1.0",
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first != second

    def test_soak_include_flaky_degrades(self, capsys):
        import json

        assert main(["usaas", "soak", "--seed", "7", "--duration-s", "1.0",
                     "--include-flaky", "--json"]) == 0
        counters = json.loads(capsys.readouterr().out)
        assert counters["served"] == 0
        assert counters["served_degraded"] > 0

    def test_exit_code_contract_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["usaas", "soak", "--help"])
        out = " ".join(capsys.readouterr().out.split())  # undo wrapping
        assert "exit codes: 0 = every query accounted" in out
        assert "2 = accounting violation or drain left work behind" in out


class TestUsaasClusterSoak:
    def test_cluster_soak_runs_and_reports(self, capsys):
        code = main(["usaas", "cluster-soak", "--seed", "7",
                     "--duration-s", "1.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster soak:" in out
        assert "replicas" in out
        assert "rebalances" in out
        assert "r0" in out and "r1" in out and "r2" in out

    def test_cluster_soak_json_is_seed_deterministic(self, capsys):
        import json

        argv = ["usaas", "cluster-soak", "--seed", "9",
                "--duration-s", "1.5", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        # The default mid-spike crash lost queued work, terminally.
        assert first["failed"] > 0
        assert first["submitted"] == (
            first["served"] + first["served_degraded"] + first["shed"]
            + first["deadline_exceeded"] + first["failed"]
        )
        assert first["drain"]["leftover"] == 0

    def test_cluster_soak_different_seed_differs(self, capsys):
        import json

        assert main(["usaas", "cluster-soak", "--seed", "9",
                     "--duration-s", "1.5", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["usaas", "cluster-soak", "--seed", "10",
                     "--duration-s", "1.5", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first != second

    def test_cluster_soak_explicit_faults_and_tenants(self, capsys):
        import json

        assert main([
            "usaas", "cluster-soak", "--seed", "7", "--duration-s", "1.5",
            "--fault", "r1:crash:0.5:0.5", "--fault", "r2:slow:0.2:1.0:0.1",
            "--tenant", "alpha:2", "--tenant", "beta:1:50:5",
            "--json",
        ]) == 0
        counters = json.loads(capsys.readouterr().out)
        assert counters["fault_events"] == 4  # crash+recover, start+end
        assert set(counters["cluster"]["tenants"]) == {"alpha", "beta"}

    def test_cluster_soak_no_faults_is_clean(self, capsys):
        import json

        assert main(["usaas", "cluster-soak", "--seed", "7",
                     "--duration-s", "1.5", "--no-faults", "--json"]) == 0
        counters = json.loads(capsys.readouterr().out)
        assert counters["fault_events"] == 0
        assert counters["failed"] == 0
        assert counters["cluster"]["rebalances"] == 0

    def test_cluster_soak_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["usaas", "cluster-soak", "--fault", "r1:crash"])
        assert exc_info.value.code == 2
        assert "replica:kind:at_s" in capsys.readouterr().err

    def test_cluster_soak_bad_tenant_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["usaas", "cluster-soak", "--tenant", "alpha:-2"])
        assert exc_info.value.code == 2
        assert "bad tenant" in capsys.readouterr().err

    def test_cluster_soak_exit_code_contract_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["usaas", "cluster-soak", "--help"])
        out = capsys.readouterr().out
        assert "exit codes: 0" in out
        assert "accounting violation" in out
        assert "total outage" in out


class TestUsaasStreamSoak:
    ARGS = ["usaas", "stream-soak", "--seed", "7", "--duration-s", "300"]

    def test_stream_soak_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "[stream-soak]" in out
        assert "ledger=closed" in out
        assert "[cp]" in out  # change points printed with attribution

    def test_stream_soak_json_is_seed_deterministic(self, capsys):
        import json

        argv = self.ARGS + ["--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["emitted"] == (
            first["aggregated"] + first["late_dropped"]
            + first["late_side"] + first["deduped"]
        )
        assert first["deduped"] > 0

    def test_stream_soak_crash_resume_matches_clean_run(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        clean = json.loads(capsys.readouterr().out)
        assert main(self.ARGS + ["--crash-at", "120", "--json"]) == 0
        crashed = json.loads(capsys.readouterr().out)
        assert crashed["crashes"] == 1
        assert crashed["resumes"] == 1
        # Only process-internal mechanics may differ (how often queues
        # filled, how many snapshots were cut); every output-facing
        # counter must survive the crash unchanged.
        internal = (
            "crashes", "resumes", "checkpoints", "backpressure_waits",
        )
        for key, value in clean.items():
            if key not in internal:
                assert crashed[key] == value, key

    def test_stream_soak_no_faults_has_no_chaos_buckets(self, capsys):
        import json

        assert main(self.ARGS + ["--no-faults", "--json"]) == 0
        counters = json.loads(capsys.readouterr().out)
        assert counters["deduped"] == 0
        assert counters["late_dropped"] == 0
        assert counters["emitted"] == counters["aggregated"]

    def test_stream_soak_side_policy_counts_late(self, capsys):
        import json

        assert main(self.ARGS + [
            "--late-policy", "side", "--allowed-lateness-s", "2",
            "--json",
        ]) == 0
        counters = json.loads(capsys.readouterr().out)
        assert counters["late_side"] > 0
        assert counters["late_dropped"] == 0

    def test_stream_soak_exit_code_contract_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["usaas", "stream-soak", "--help"])
        out = capsys.readouterr().out
        assert "exit codes: 0" in out
        assert "accounting violation" in out
        assert "detector blind" in out


class TestUsaasIntegritySoak:
    """usaas integrity-soak: the ε-contamination sweep."""

    ARGS = ["usaas", "integrity-soak", "--n-calls", "120",
            "--corpus-weeks", "2"]

    def test_sweep_holds_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "integrity soak [OK]" in out
        assert "eps sweep" in out
        assert "mos trust" in out  # the table header

    def test_json_is_seed_deterministic(self, capsys):
        import json

        argv = self.ARGS + ["--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        # The clean row and the top-ε row carry the contract.
        assert first["eps=0.n_fraud_flagged"] == 0
        assert first["eps=0.2.n_fraud_flagged"] > 0

    def test_exit_code_contract_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["usaas", "integrity-soak", "--help"])
        out = capsys.readouterr().out
        assert "exit codes: 0" in out
        assert "naive mean broke" in out
        assert "stream boundary leaked" in out


class TestUsaasPredict:
    """usaas predict: fit, grade vs ground truth, optional soak."""

    ARGS = ["usaas", "predict", "--seed", "7", "--n-calls", "80",
            "--mos-sample-rate", "0.5"]

    def test_happy_path_prints_error_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "model vs experienced QoE:" in out
        assert "(all)" in out
        assert "E-model prior MAE" in out

    def test_json_payload_grades_model_and_prior(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sessions"] == payload["model"]["n"]
        assert payload["rated"] > 0
        assert set(payload["emodel_prior"]) >= {"mae", "bias", "per_platform"}
        assert payload["weights"]

    def test_json_is_seed_deterministic(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first

    def test_zero_ratings_exits_2_with_typed_message(self, capsys):
        code = main(["usaas", "predict", "--seed", "7", "--n-calls", "20",
                     "--mos-sample-rate", "0.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot fit the MOS predictor" in err
        assert "0 rated session(s)" in err

    def test_soak_reports_and_stays_within_contract(self, capsys):
        import json

        assert main(self.ARGS + ["--soak-queries", "60", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        soak = payload["soak"]
        assert soak["submitted"] == 60
        assert soak["deadline_exceeded"] == 0
        terminal = (soak["served"] + soak["served_degraded"] + soak["shed"]
                    + soak["failed"])
        assert terminal == soak["submitted"]

    def test_exit_code_contract_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["usaas", "predict", "--help"])
        out = capsys.readouterr().out
        assert "exit codes: 0" in out
        assert "2" in out and "3" in out


def _edit_runner(monkeypatch, module, name, edit):
    """Make the CLI's soak runner return its real report, edited.

    Returns the list the edited reports are appended to, so a test can
    build the exact stderr line it expects from the report it caused.
    """
    real = getattr(module, name)
    edited = []

    def runner(*args, **kwargs):
        report = edit(real(*args, **kwargs))
        edited.append(report)
        return report

    monkeypatch.setattr(module, name, runner)
    return edited


class TestSoakExitContract:
    """Every non-zero soak exit: its code and its exact stderr lines.

    Each test runs the real soak, then hands the CLI a copy of the
    report with one field broken, so the verdict branch under test is
    the only one that can fire.
    """

    SOAK = ["usaas", "soak", "--seed", "7", "--duration-s", "1.0",
            "--json"]
    CLUSTER = ["usaas", "cluster-soak", "--seed", "7",
               "--duration-s", "1.5", "--json"]
    STREAM = ["usaas", "stream-soak", "--seed", "7", "--duration-s", "300",
              "--json"]
    PREDICT = ["usaas", "predict", "--seed", "7", "--n-calls", "80",
               "--mos-sample-rate", "0.5", "--soak-queries", "60", "--json"]
    INTEGRITY = ["usaas", "integrity-soak", "--n-calls", "120",
                 "--corpus-weeks", "2", "--json"]

    def _stderr(self, capsys):
        return capsys.readouterr().err.splitlines()

    def test_soak_accounting_violation_exits_2(self, monkeypatch, capsys):
        import dataclasses

        import repro.serving

        _edit_runner(monkeypatch, repro.serving, "run_soak",
                     lambda r: dataclasses.replace(r, failed=r.failed + 1))
        assert main(self.SOAK) == 2
        assert self._stderr(capsys) == [
            "accounting violation: submitted != sum(terminal states)",
        ]

    def test_soak_dirty_drain_exits_2(self, monkeypatch, capsys):
        import dataclasses

        import repro.serving

        edited = _edit_runner(
            monkeypatch, repro.serving, "run_soak",
            lambda r: dataclasses.replace(
                r, drain=dataclasses.replace(r.drain, leftover_pending=1)
            ),
        )
        assert main(self.SOAK) == 2
        completed = edited[0].drain.completed
        assert self._stderr(capsys) == [
            f"drain left work behind: drain: {completed} completed, "
            f"1 leftover pending, 0 in flight",
        ]

    def test_cluster_soak_accounting_violation_exits_2(self, monkeypatch,
                                                       capsys):
        import dataclasses

        import repro.serving

        _edit_runner(
            monkeypatch, repro.serving, "run_cluster_soak",
            lambda r: dataclasses.replace(r, metrics=dataclasses.replace(
                r.metrics, submitted=r.metrics.submitted + 1,
            )),
        )
        assert main(self.CLUSTER) == 2
        assert self._stderr(capsys) == [
            "accounting violation: cluster ledger did not close",
        ]

    def test_cluster_soak_dirty_drain_exits_2(self, monkeypatch, capsys):
        import dataclasses

        import repro.serving

        _edit_runner(
            monkeypatch, repro.serving, "run_cluster_soak",
            lambda r: dataclasses.replace(r, drain={**r.drain, "leftover": 1}),
        )
        assert main(self.CLUSTER) == 2
        assert self._stderr(capsys) == ["drain left 1 queries behind"]

    def test_cluster_soak_total_outage_exits_3(self, monkeypatch, capsys):
        import dataclasses

        import repro.serving

        _edit_runner(
            monkeypatch, repro.serving, "run_cluster_soak",
            lambda r: dataclasses.replace(r, served=0, served_degraded=0),
        )
        assert main(self.CLUSTER) == 3
        assert self._stderr(capsys) == ["total outage: nothing was served"]

    def test_stream_soak_open_ledger_exits_2(self, monkeypatch, capsys):
        # A ledger that does not close raises inside the pipeline's
        # finish(), before any report exists; the command still owes
        # its documented exit 2 and one accounting line, not a
        # traceback.
        from repro.streaming.pipeline import StreamCounters

        accounted = StreamCounters.accounted
        monkeypatch.setattr(StreamCounters, "accounted", property(
            lambda counters: accounted.fget(counters) - 1
        ))
        assert main(self.STREAM) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "accounting violation: exact-once ledger violated: emitted="
        )

    @pytest.mark.parametrize("command, package, runner, code", [
        ("SOAK", "repro.serving", "run_soak", 2),
        ("CLUSTER", "repro.serving", "run_cluster_soak", 2),
        ("PREDICT", "repro.prediction", "run_prediction_soak", 3),
    ])
    def test_ledger_violation_mid_run_is_the_accounting_exit(
        self, monkeypatch, capsys, command, package, runner, code,
    ):
        import importlib

        from repro.errors import LedgerViolationError

        def broken(*args, **kwargs):
            raise LedgerViolationError("ticket 3 already has an outcome")

        monkeypatch.setattr(importlib.import_module(package), runner, broken)
        assert main(getattr(self, command)) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "accounting violation: ticket 3 already has an outcome",
        ]

    def test_stream_soak_blind_detector_exits_3(self, monkeypatch, capsys):
        import dataclasses

        import repro.streaming

        edited = _edit_runner(
            monkeypatch, repro.streaming, "run_stream_soak",
            lambda r: dataclasses.replace(r, detected=0),
        )
        assert main(self.STREAM) == 3
        injected = len(edited[0].degradations)
        assert injected > 0
        assert self._stderr(capsys) == [
            f"detector blind: 0/{injected} injected degradations detected "
            f"(blind rate 1.00 > 0.00)",
        ]

    def test_predict_soak_accounting_violation_exits_3(self, monkeypatch,
                                                       capsys):
        import dataclasses

        import repro.prediction

        _edit_runner(monkeypatch, repro.prediction, "run_prediction_soak",
                     lambda r: dataclasses.replace(r, failed=r.failed + 1))
        assert main(self.PREDICT) == 3
        assert self._stderr(capsys) == [
            "accounting violation: submitted != sum(terminal states) for "
            "predict_mos",
        ]

    def test_predict_soak_deadline_exceeded_exits_3(self, monkeypatch,
                                                    capsys):
        import dataclasses

        import repro.prediction

        # Move one served answer to deadline_exceeded: the books still
        # close, so the deadline branch is the first to fire.
        _edit_runner(
            monkeypatch, repro.prediction, "run_prediction_soak",
            lambda r: dataclasses.replace(
                r, served=r.served - 1,
                deadline_exceeded=r.deadline_exceeded + 1,
            ),
        )
        assert main(self.PREDICT) == 3
        assert self._stderr(capsys) == [
            "deadline violation: 1 prediction(s) answered past their budget",
        ]

    def test_predict_soak_overrun_past_one_batch_exits_3(self, monkeypatch,
                                                         capsys):
        import dataclasses
        import json

        import repro.prediction
        from repro.prediction import PredictionCostModel

        _edit_runner(monkeypatch, repro.prediction, "run_prediction_soak",
                     lambda r: dataclasses.replace(r, max_overrun_s=1.0))
        assert main(self.PREDICT) == 3
        captured = capsys.readouterr()
        sessions = json.loads(captured.out)["sessions"]
        one_batch_s = PredictionCostModel().batch_cost_s(16 * sessions)
        assert captured.err.splitlines() == [
            f"deadline violation: answered 1.0000s over budget "
            f"(> one batch cost {one_batch_s:.4f}s)",
        ]

    def test_integrity_soak_violation_exits_2(self, monkeypatch, capsys):
        import dataclasses

        import repro.integrity

        _edit_runner(
            monkeypatch, repro.integrity, "run_integrity_soak",
            lambda r: dataclasses.replace(
                r, violations=("mos_trust escaped its bound",),
            ),
        )
        assert main(self.INTEGRITY) == 2
        assert self._stderr(capsys) == [
            "integrity violation: mos_trust escaped its bound",
        ]

    def test_integrity_soak_ineffective_exits_3(self, monkeypatch, capsys):
        import dataclasses

        import repro.integrity

        _edit_runner(
            monkeypatch, repro.integrity, "run_integrity_soak",
            lambda r: dataclasses.replace(
                r, ineffective=("naive mean held at the top eps",),
            ),
        )
        assert main(self.INTEGRITY) == 3
        assert self._stderr(capsys) == [
            "sweep ineffective: naive mean held at the top eps",
        ]
