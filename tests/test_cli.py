import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import symkal.cli
import symkal.kalman
from symkal import (
    RankAmbiguityError,
    RefinementPair,
    build_system,
    kalman_decompose,
    random_system,
    refine,
    sharp_adjoint,
    verify_decomposition,
)
from symkal.cli import main
from symkal.documents import (
    canonical_json,
    matrix_to_lists,
    parse_system_document,
    system_to_document,
)
from symkal.errors import ConsistencyError, DocumentError


@pytest.fixture()
def system_doc(tmp_path):
    doc = system_to_document(random_system(2, 1, seed=11))
    path = tmp_path / "system.json"
    path.write_text(canonical_json(doc))
    return path


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_builtin_example(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--builtin",
                               "--omega", 1, "--lambda", 1, "--gamma", 1)
        assert code == 0
        assert "k=1 l=1 d=1" in out

    def test_document(self, system_doc, capsys):
        code, out, _ = run_cli(capsys, "analyze", system_doc)
        assert code == 0
        assert "k=2 l=0 d=0" in out

    def test_zero_coupling_document(self, tmp_path, capsys):
        doc = system_to_document(build_system(np.eye(6), np.zeros((2, 6))))
        path = tmp_path / "zero.json"
        path.write_text(canonical_json(doc))
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        assert "k=0 l=0 d=3" in out

    def test_nonsymmetric_r_exits_2(self, tmp_path, capsys):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["R"][0][1] += 1.0
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(doc))
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 2
        assert "R symmetric" in err
        assert "residual" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", tmp_path / "absent.json")
        assert code == 2

    def test_builtin_and_path_conflict(self, system_doc, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--builtin", system_doc)
        assert code == 2

    def test_ambiguous_rank_exits_3(self, system_doc, capsys, monkeypatch):
        import symkal.cli as cli_mod

        def explode(*args, **kwargs):
            raise RankAmbiguityError("forced for the exit-code contract")

        monkeypatch.setattr(cli_mod, "kalman_decompose", explode)
        code, _, err = run_cli(capsys, "analyze", system_doc)
        assert code == 3
        assert "ambiguous" in err

    def test_ambiguous_rank_reports_its_decisions(self, capsys):
        # at this scale rounding noise in F J F^T counts as a second pair of
        # the demo's form, more than its rank F of 3 allows
        code, _, err = run_cli(capsys, "analyze", "--builtin", "--tolerance", 1e-3)
        assert code == 3
        for stage in ("rank F", "skew_canonical"):
            line = next(line for line in err.splitlines() if line.strip().startswith(stage))
            assert "cutoff" in line and "margin" in line

    def test_failed_self_verification_exits_5(self, system_doc, capsys, monkeypatch):
        import symkal.cli as cli_mod

        def explode(*args, **kwargs):
            raise ConsistencyError("forced for the exit-code contract")

        monkeypatch.setattr(cli_mod, "kalman_decompose", explode)
        code, _, err = run_cli(capsys, "decompose", system_doc)
        assert code == 5
        assert "consistency" in err


class TestDecompose:
    def test_json_report(self, system_doc, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "decompose", system_doc, "--output", out_path)
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["dims"] == {"k": 2, "l": 0, "d": 0}
        assert report["schema"] == 1
        assert len(report["labels"]) == 4
        assert "mode" not in report

    def test_byte_identical_runs(self, system_doc, capsys):
        code1, out1, _ = run_cli(capsys, "decompose", system_doc)
        code2, out2, _ = run_cli(capsys, "decompose", system_doc)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_roundtrip_bitwise(self, system_doc, capsys):
        code, out, _ = run_cli(capsys, "decompose", system_doc)
        assert code == 0
        report = json.loads(out)
        reparsed = json.loads(canonical_json(report))
        assert np.array_equal(np.array(report["V"]), np.array(reparsed["V"]))
        assert canonical_json(report) == canonical_json(reparsed)

    def test_text_format(self, system_doc, capsys):
        code, out, _ = run_cli(capsys, "decompose", system_doc, "--format", "text")
        assert code == 0
        assert "k=2 l=0 d=0" in out

    def test_write_failure_exits_4(self, system_doc, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "report.json"
        code, _, err = run_cli(capsys, "decompose", system_doc, "--output", target)
        assert code == 4
        assert "cannot write" in err


class TestVerify:
    def _decompose(self, system_doc, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "decompose", system_doc, "--output", report_path)
        assert code == 0
        return report_path

    def test_clean_report_exits_0(self, system_doc, tmp_path, capsys):
        report_path = self._decompose(system_doc, tmp_path, capsys)
        code, out, _ = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 0
        assert "all checks passed" in out

    def test_report_with_mode_key_exits_0(self, system_doc, tmp_path, capsys):
        # reports written while a factorization mode existed carry "mode"
        report_path = self._decompose(system_doc, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        report["mode"] = "strict"
        report_path.write_text(canonical_json(report))
        code, out, _ = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 0
        assert "all checks passed" in out

    def test_perturbed_v_exits_5(self, system_doc, tmp_path, capsys):
        report_path = self._decompose(system_doc, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        report["V"][0][0] += 1e-3
        report_path.write_text(canonical_json(report))
        code, _, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 5
        assert "symplecticity" in err

    def test_swapped_pairs_fail_observability(self, tmp_path, capsys):
        # swapping the co and ncno pairs keeps V symplectic; with the stored
        # matrices recomputed from the new V only the structure is wrong
        _, out, _ = run_cli(capsys, "example")
        system_doc = tmp_path / "example.json"
        system_doc.write_text(canonical_json(json.loads(out)["system"]))
        report_path = self._decompose(system_doc, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        assert report["dims"] == {"k": 1, "l": 1, "d": 1}
        system, _ = parse_system_document(json.loads(system_doc.read_text()))
        V = np.array(report["V"])[[2, 1, 0, 5, 4, 3]]
        V_inv = sharp_adjoint(V)
        for name, value in (("V", V), ("A_hat", V @ system.A @ V_inv),
                            ("B_hat", V @ system.B), ("C_hat", system.C @ V_inv)):
            report[name] = matrix_to_lists(value)
        report_path.write_text(canonical_json(report))
        code, out, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 5
        assert "failed checks: pattern, observability\n" in err
        assert "observability_margin:" in out

    def test_non_numeric_residual_exits_2(self, system_doc, tmp_path, capsys):
        report_path = self._decompose(system_doc, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        report["residuals"]["pattern"] = "small"
        report_path.write_text(canonical_json(report))
        code, _, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 2
        assert "'pattern'; expected number, got str" in err

    def test_malformed_report_exits_2(self, system_doc, tmp_path, capsys):
        report_path = tmp_path / "broken.json"
        report_path.write_text('{"schema": 1}\n')
        code, _, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 2

    @pytest.mark.parametrize("field, cut", [
        ("B_hat", lambda rows: rows[:3]),
        ("D", lambda rows: [row[:1] for row in rows]),
    ], ids=["B_hat_3_rows", "D_1_column"])
    def test_mis_shaped_stored_matrix_exits_2(self, field, cut, system_doc, tmp_path, capsys):
        report_path = self._decompose(system_doc, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        report[field] = cut(report[field])
        report_path.write_text(canonical_json(report))
        code, _, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 2
        assert field in err


class TestOneVerifier:
    """The library, refine and ``symkal verify`` share one verifier, and
    only the decomposition itself builds a Krylov stack."""

    @staticmethod
    def _count(monkeypatch, name):
        original = getattr(symkal.kalman, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (module is not None and module.__name__.startswith("symkal")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.fixture()
    def calls(self, monkeypatch):
        assert symkal.cli.verify_transformation is symkal.kalman.verify_transformation
        return self._count(monkeypatch, "verify_transformation")

    @pytest.fixture()
    def stacks(self, monkeypatch):
        return self._count(monkeypatch, "krylov_matrices")

    def test_kalman_decompose(self, calls, stacks):
        kalman_decompose(random_system(2, 1, seed=11))
        assert len(calls) == 1
        assert len(stacks) == 1

    def test_verify_decomposition(self, calls, stacks):
        system = random_system(2, 1, seed=11)
        dec = kalman_decompose(system)
        calls.clear()
        stacks.clear()
        verify_decomposition(system, dec)
        assert len(calls) == 1
        assert len(stacks) == 0

    def test_refine(self, calls, stacks):
        dec = kalman_decompose(random_system(2, 1, seed=11))
        E = dec.factorization.E
        calls.clear()
        stacks.clear()
        refine(dec, RefinementPair(X=np.eye(E.s), Y=np.eye(2 * E.r)))
        assert len(calls) == 1
        assert len(stacks) == 0

    def test_cli_verify(self, system_doc, tmp_path, capsys, calls, stacks):
        report_path = tmp_path / "report.json"
        assert run_cli(capsys, "decompose", system_doc, "--output", report_path)[0] == 0
        calls.clear()
        stacks.clear()
        code, _, _ = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 0
        assert len(calls) == 1
        assert len(stacks) == 0


class TestExample:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "example", "--omega", 1,
                               "--lambda", 1, "--gamma", 1)
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"]["a"] == pytest.approx(5 / 6)
        assert payload["coefficients"]["b"] == pytest.approx(1 / 6)
        assert payload["report"]["dims"] == {"k": 1, "l": 1, "d": 1}
        V_ref = np.array(payload["refinement"]["report"]["V"])
        s2 = 1 / np.sqrt(2)
        solid = np.abs(V_ref[np.abs(V_ref) > 1e-9])
        assert np.allclose(np.sort(solid), [s2] * 8 + [1.0] * 2, atol=1e-9)
        assert "X" in payload["refinement"] and "Y" in payload["refinement"]

    def test_example_document_parses(self, capsys):
        code, out, _ = run_cli(capsys, "example")
        payload = json.loads(out)
        system, _ = parse_system_document(payload["system"])
        assert system.n == 3 and system.m == 1

    def test_nco_state_row(self, capsys):
        code, out, _ = run_cli(capsys, "example")
        payload = json.loads(out)
        report = payload["refinement"]["report"]
        idx = report["labels"].index("nco")
        row = np.array(report["V"][idx])
        s2 = 1 / np.sqrt(2)
        assert np.allclose(np.abs(row), [s2, s2, 0, 0, 0, 0], atol=1e-9)

    def test_nonpositive_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "example", "--omega", -1)
        assert code == 2


class TestGenerate:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(capsys, "generate", "--n", 2, "--m", 1, "--seed", 5)
        code2, out2, _ = run_cli(capsys, "generate", "--n", 2, "--m", 1, "--seed", 5)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_generated_document_valid(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, _, _ = run_cli(capsys, "generate", "--n", 3, "--m", 2,
                             "--seed", 9, "--output", path)
        assert code == 0
        system, _ = parse_system_document(json.loads(path.read_text()))
        assert system.n == 3 and system.m == 2

    def test_generate_then_analyze(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        run_cli(capsys, "generate", "--n", 2, "--m", 2, "--seed", 4, "--output", path)
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        assert "k=" in out


class TestDocuments:
    def test_both_coupling_variants_rejected(self):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["coupling"]["Lq_re"] = [[0.0]]
        with pytest.raises(DocumentError, match="coupling"):
            parse_system_document(doc)

    def test_missing_field_named(self):
        with pytest.raises(DocumentError, match="'R'"):
            parse_system_document({"schema": 1, "n": 1, "m": 1,
                                   "coupling": {}, "scattering": {}})

    def test_shape_mismatch_named(self):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["R"] = [[0.0]]
        with pytest.raises(DocumentError, match="'R'"):
            parse_system_document(doc)

    def test_physical_variant_roundtrip(self, tmp_path, capsys):
        from symkal.documents import physical_to_document
        from symkal.optomech import hamiltonian_matrix, physical_spec
        doc = physical_to_document(physical_spec(1.0), hamiltonian_matrix(1.0, 1.0))
        path = tmp_path / "physical.json"
        path.write_text(canonical_json(doc))
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        assert "k=1 l=1 d=1" in out

    def test_tolerance_override_consumed(self):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["tolerance"] = 10.0
        _, tol = parse_system_document(doc)
        assert tol == 10.0
        doc["tolerance"] = -1.0
        with pytest.raises(DocumentError, match="tolerance"):
            parse_system_document(doc)


class TestJsonBooleans:
    """JSON true and false load as Python bools, which subclass int, so a
    bool must be refused wherever a count or a number is read."""

    @pytest.mark.parametrize("field", ["schema", "n", "m", "tolerance"])
    def test_system_document(self, field, tmp_path, capsys):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc[field] = True
        path = tmp_path / "system.json"
        path.write_text(canonical_json(doc))
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 2
        assert f"'{field}'" in err

    @pytest.mark.parametrize("keys, value", [
        (("schema",), True),
        (("dims", "k"), True),
        (("dims", "l"), False),
        (("residuals", "pattern"), False),
    ], ids=["schema", "dims.k", "dims.l", "residuals.pattern"])
    def test_report(self, keys, value, tmp_path, capsys):
        # every value replaced here equals the bool, so only its type is wrong
        system_doc = tmp_path / "system.json"
        system_doc.write_text(canonical_json(system_to_document(random_system(1, 1, seed=0))))
        report_path = tmp_path / "report.json"
        assert run_cli(capsys, "decompose", system_doc, "--output", report_path)[0] == 0
        report = json.loads(report_path.read_text())
        *parents, field = keys
        target = report
        for key in parents:
            target = target[key]
        assert target[field] == value
        target[field] = value
        report_path.write_text(canonical_json(report))
        code, _, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 2
        assert f"'{field}'" in err


class TestUndecodableDocuments:
    NOT_UTF8 = b"\xff\xfe{}"

    def test_analyze(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(self.NOT_UTF8)
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 2
        assert "UTF-8" in err

    def test_verify_report(self, system_doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(self.NOT_UTF8)
        code, _, err = run_cli(capsys, "verify", system_doc, path)
        assert code == 2
        assert "UTF-8" in err


def _parser_flags() -> set[str]:
    flags = set()
    parsers = [symkal.cli.build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return flags - {"--help"}


def test_readme_names_every_flag():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == _parser_flags()
