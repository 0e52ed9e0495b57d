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
    QuadratureSystem,
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
    SCHEMA_VERSION,
    canonical_json,
    decomposition_to_report,
    matrix_to_lists,
    parse_system_document,
    physical_to_document,
    system_to_document,
)
from symkal.errors import ConsistencyError, DocumentError, ValidationError
from symkal.linalg import TolerancePolicy
from symkal.model import PhysicalSpec
from symkal.optomech import hamiltonian_matrix, physical_spec

from helpers import structured_system


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
    """The analysis text that ``decompose`` and ``example`` print with
    ``--format text``, and the exit codes on the way to it."""

    def test_builtin_example(self, capsys):
        code, out, _ = run_cli(capsys, "example", "--format", "text",
                               "--omega", 1, "--lambda", 1, "--gamma", 1)
        assert code == 0
        assert "k=1 l=1 d=1" in out

    def test_document(self, system_doc, capsys):
        code, out, _ = run_cli(capsys, "decompose", system_doc, "--format", "text")
        assert code == 0
        assert "k=2 l=0 d=0" in out

    def test_zero_coupling_document(self, tmp_path, capsys):
        doc = system_to_document(build_system(np.eye(6), np.zeros((2, 6))))
        path = tmp_path / "zero.json"
        path.write_text(canonical_json(doc))
        code, out, _ = run_cli(capsys, "decompose", path, "--format", "text")
        assert code == 0
        assert "k=0 l=0 d=3" in out

    def test_nonsymmetric_r_exits_2(self, tmp_path, capsys):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["R"][0][1] += 1.0
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(doc))
        code, _, err = run_cli(capsys, "decompose", path, "--format", "text")
        assert code == 2
        assert "R symmetric" in err
        assert "residual" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decompose", tmp_path / "absent.json", "--format", "text")
        assert code == 2

    def test_ambiguous_rank_exits_3(self, system_doc, capsys, monkeypatch):
        import symkal.cli as cli_mod

        def explode(*args, **kwargs):
            raise RankAmbiguityError("forced for the exit-code contract")

        monkeypatch.setattr(cli_mod, "kalman_decompose", explode)
        code, _, err = run_cli(capsys, "decompose", system_doc, "--format", "text")
        assert code == 3
        assert "ambiguous" in err

    def test_ambiguous_rank_reports_its_decisions(self, capsys, tmp_path):
        # the raw power stack of a generated n = 12 system keeps rank F = 22
        # but only 8 pairs of F J F^T, which leaves d = 12 - 8 - 6 < 0
        path = tmp_path / "n12.json"
        run_cli(capsys, "generate", "--n", 12, "--m", 4, "--seed", 0, "--output", path)
        code, _, err = run_cli(capsys, "decompose", path, "--format", "text")
        assert code == 3
        assert "rank(F)=22 and rank(F J F^T)=16 imply l=6, d=-2" in err
        for stage in ("rank F", "skew_canonical"):
            line = next(line for line in err.splitlines() if line.strip().startswith(stage))
            assert "cutoff" in line and "margin" in line

    def test_failed_self_verification_exits_5(self, system_doc, capsys, monkeypatch):
        import symkal.cli as cli_mod

        def explode(*args, **kwargs):
            raise ConsistencyError("forced for the exit-code contract", report=None)

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

    @pytest.mark.parametrize("command", ["decompose", "example", "generate"])
    def test_write_failure_exits_4(self, command, system_doc, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "report.json"
        args = {"decompose": [system_doc], "example": [], "generate": ["--n", 1, "--m", 1]}
        code, _, err = run_cli(capsys, command, *args[command], "--output", target)
        assert code == 4
        assert "cannot write" in err


class TestObservabilityMarginReport:
    """The text report says when the margin is a certified lower bound, and
    verify prints which kind it took."""

    @pytest.mark.parametrize("n, m, certified", [(3, 4, True), (2, 1, False)])
    def test_text_and_verify(self, n, m, certified, tmp_path, capsys):
        doc, report = tmp_path / "system.json", tmp_path / "report.json"
        assert run_cli(capsys, "generate", "--n", n, "--m", m, "--seed", 1,
                       "--output", doc)[0] == 0
        code, out, _ = run_cli(capsys, "decompose", doc, "--format", "text")
        assert code == 0
        margin = re.search(r"^observability margin: (at least )?\S+$", out, re.M)
        assert margin and bool(margin.group(1)) == certified
        assert run_cli(capsys, "decompose", doc, "--output", report)[0] == 0
        code, out, _ = run_cli(capsys, "verify", doc, report)
        assert code == 0
        assert f"\nobservability_certified: {certified}\n" in out


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
        # matrices recomputed from the new V only the structure is wrong.
        # The subspace claimed unobservable is then the controllable one,
        # invariant but seen by C at a relative residual of 1
        _, out, _ = run_cli(capsys, "example")
        system_doc = tmp_path / "example.json"
        system_doc.write_text(canonical_json(json.loads(out)["system"]))
        report_path = self._decompose(system_doc, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        assert report["dims"] == {"k": 1, "l": 1, "d": 1}
        system = parse_system_document(json.loads(system_doc.read_text()))
        V = np.array(report["V"])[[2, 1, 0, 5, 4, 3]]
        V_inv = sharp_adjoint(V)
        for name, value in (("V", V), ("A_hat", V @ system.A @ V_inv),
                            ("B_hat", V @ system.B), ("C_hat", system.C @ V_inv)):
            report[name] = matrix_to_lists(value)
        report_path.write_text(canonical_json(report))
        code, out, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 5
        assert err == "failed checks: kernel\n"
        values = dict(line.split(": ", 1) for line in out.splitlines())
        assert float(values["kernel_residual"]) > 0.5
        assert values["invariance_ok"] == values["observability_ok"] == "True"

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
        refine(dec, RefinementPair(X=np.eye(2 * E.k + E.l), Y=np.eye(2 * E.r)))
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
        system = parse_system_document(payload["system"])
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

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--n", 2, "--m", 1, "--seed", -1)
        assert code == 2 and out == ""
        assert err == "random_system needs seed >= 0, got seed=-1\n"

    def test_generated_document_valid(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, _, _ = run_cli(capsys, "generate", "--n", 3, "--m", 2,
                             "--seed", 9, "--output", path)
        assert code == 0
        system = parse_system_document(json.loads(path.read_text()))
        assert system.n == 3 and system.m == 2

    def test_generate_then_analyze(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        run_cli(capsys, "generate", "--n", 2, "--m", 2, "--seed", 4, "--output", path)
        code, out, _ = run_cli(capsys, "decompose", path, "--format", "text")
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
        code, out, _ = run_cli(capsys, "decompose", path, "--format", "text")
        assert code == 0
        assert "k=1 l=1 d=1" in out


class TestLibraryErrors:
    """A system the library rejects exits 2 with the library's own message,
    on one line, and is not wrapped as a document error."""

    @pytest.mark.parametrize("matrix", ["R", "Sigma", "S"])
    def test_reaches_the_user_once(self, matrix, tmp_path, capsys):
        if matrix == "S":
            spec = physical_spec(1.0)
            S = 2 * spec.S
            doc = physical_to_document(spec, hamiltonian_matrix(1.0, 1.0))
            doc["scattering"] = {"S_re": matrix_to_lists(S.real), "S_im": matrix_to_lists(S.imag)}
            with pytest.raises(ValidationError) as info:
                PhysicalSpec(S=S, Lq=spec.Lq, Lp=spec.Lp)
        else:
            system = random_system(1, 1, seed=0)
            R, Sigma = np.array(system.R), np.array(system.Sigma)
            if matrix == "R":
                R[0, 1] += 1.0
            else:
                Sigma *= 2
            doc = system_to_document(system)
            doc["R"], doc["scattering"]["Sigma"] = matrix_to_lists(R), matrix_to_lists(Sigma)
            with pytest.raises(ValidationError) as info:
                build_system(R, system.C, Sigma)
        path = tmp_path / "system.json"
        path.write_text(canonical_json(doc))
        code, out, err = run_cli(capsys, "decompose", path)
        assert code == 2 and not out
        assert err == f"{info.value}\n"


class TestJsonBooleans:
    """JSON true and false load as Python bools, which subclass int, so a
    bool must be refused wherever a count or a number is read."""

    @pytest.mark.parametrize("field", ["schema", "n", "m", "tolerance"])
    def test_system_document(self, field, tmp_path, capsys):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc[field] = True
        path = tmp_path / "system.json"
        path.write_text(canonical_json(doc))
        code, _, err = run_cli(capsys, "decompose", path)
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


class TestToleranceFlag:
    """A scale that is not positive and finite exits 2 before any rank
    decision, with no warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["example", "decompose"])
    def test_rejected(self, command, value, system_doc, capsys):
        source = {"example": [], "decompose": [system_doc]}[command]
        code, out, err = run_cli(capsys, command, *source, f"--tolerance={value}")
        assert code == 2 and not out
        assert "tolerance scale positive and finite" in err


class TestMatrixEntries:
    """np.array(..., dtype=float) parses "1" and true, so every matrix entry
    must be checked to be a JSON number before it is converted."""

    @pytest.mark.parametrize("entry", ["1", True, None])
    def test_raw_system_matrix(self, entry, tmp_path, capsys):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["R"][0][0] = entry
        path = tmp_path / "system.json"
        path.write_text(canonical_json(doc))
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 2
        assert "'R'" in err and "entries must be numbers" in err

    @pytest.mark.parametrize("entry", ["0", False])
    def test_physical_matrix(self, entry, tmp_path, capsys):
        from symkal.documents import physical_to_document
        from symkal.optomech import hamiltonian_matrix, physical_spec
        doc = physical_to_document(physical_spec(1.0), hamiltonian_matrix(1.0, 1.0))
        assert doc["coupling"]["Lq_re"][0][0] == 0
        doc["coupling"]["Lq_re"][0][0] = entry
        path = tmp_path / "physical.json"
        path.write_text(canonical_json(doc))
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 2
        assert "'Lq_re'" in err

    def test_report_matrix(self, system_doc, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run_cli(capsys, "decompose", system_doc, "--output", report_path)[0] == 0
        report = json.loads(report_path.read_text())
        report["V"][0][0] = repr(report["V"][0][0])
        report_path.write_text(canonical_json(report))
        code, out, err = run_cli(capsys, "verify", system_doc, report_path)
        assert code == 2
        assert "all checks passed" not in out
        assert "'V'" in err


    @pytest.mark.parametrize("entry, message", [
        ("1", "entries must be numbers, got str"),
        (True, "entries must be numbers, got bool"),
        (None, "entries must be numbers, got NoneType"),
        ({}, "entries must be numbers, got dict"),
    ])
    def test_entry_messages_pinned(self, entry, message):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["R"][0][1] = entry
        with pytest.raises(DocumentError) as info:
            parse_system_document(doc)
        assert str(info.value) == f"invariant violated: document field 'R'; {message}"

    def test_number_row_messages_pinned(self):
        doc = system_to_document(random_system(1, 1, seed=0))
        doc["R"][1] = 0.5
        with pytest.raises(DocumentError) as info:
            parse_system_document(doc)
        assert str(info.value).startswith(
            "invariant violated: document field 'R'; not a numeric array: ")
        doc["R"] = [0.5, 0.5]
        with pytest.raises(DocumentError) as info:
            parse_system_document(doc)
        assert str(info.value) == (
            "invariant violated: document field 'R'; expected shape (2, 2), got non-2D")

    def test_numpy_floats_accepted(self):
        # documents built in Python may hold np.float64, a float subclass
        system = random_system(2, 1, seed=3)
        doc = system_to_document(system)
        doc["R"] = [[np.float64(x) for x in row] for row in doc["R"]]
        parsed = parse_system_document(doc)
        assert np.array_equal(parsed.R, system.R)


def _stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestCanonicalJson:
    """canonical_json writes what json.dumps(indent=2, sort_keys=True) writes,
    byte for byte, for every payload the CLI writes and for JSON's edge
    values."""

    @pytest.mark.parametrize("make", [
        lambda: random_system(1, 1, seed=0),
        lambda: random_system(4, 2, seed=5),
        lambda: structured_system(13, 1, 1, 1),
    ])
    def test_system_and_report(self, make):
        system = make()
        policy = TolerancePolicy(scale=1.0)
        dec = kalman_decompose(system, policy=policy)
        for payload in (system_to_document(system), decomposition_to_report(dec, policy)):
            assert canonical_json(payload) == _stdlib_json(payload)

    def test_physical_document(self):
        payload = physical_to_document(physical_spec(0.7), hamiltonian_matrix(1.3, 2.1))
        assert canonical_json(payload) == _stdlib_json(payload)

    @pytest.mark.parametrize("params", [[], ["--omega", 0.7, "--lambda", 1.3, "--gamma", 2.1]])
    def test_example_payload(self, params, capsys):
        # the payload with its refinement; floats read back to the same values
        code, out, _ = run_cli(capsys, "example", *params)
        assert code == 0
        assert "refinement" in json.loads(out)
        assert out == _stdlib_json(json.loads(out))

    def test_edge_values(self):
        payload = {
            "floats": [-0.0, 5e-324, 1e-300, 1e16, 1e22, 0.1, -2.5],
            "ints": [-3, 0, 7, -(2 ** 70)],
            "constants": [True, False, None],
            "empty": [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
            "non_finite": [float("nan"), float("inf"), float("-inf")],
            "mixed_row": [1.0, float("nan"), 2.0, 3, "x"],
            "strings": ['quote " and backslash \\', "caf\u00e9 \u2603 \U0001f600", "\n\t\x01"],
            "tuple": (1.0, 2.0),
            "nested": {"z": {"y": [[0.5, -0.25], [1e-5, 1e5]]}, "a": 1.5},
            "": "empty key",
        }
        for value in (payload, [], {}, [[]], 0, -1.5, "s", None, True, float("nan")):
            assert canonical_json(value) == _stdlib_json(value)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            canonical_json({"a": object()})
        with pytest.raises(TypeError):
            canonical_json({"a": np.int64(1)})


class TestOverflow:
    """Input too large for float64 exits 2 with one error that names the
    quantity that overflows, and lets no numpy warning through."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, message", [
        ("R", "R within float64 range; its Frobenius norm overflows"),
        ("Sigma", "Sigma symplectic (residual inf)"),
    ])
    def test_document(self, field, message, tmp_path, capsys):
        doc = system_to_document(build_system(np.eye(4), np.hstack([np.eye(2), np.zeros((2, 2))])))
        matrix = doc["scattering"]["Sigma"] if field == "Sigma" else doc["R"]
        matrix[0][0] = 1e200
        path = tmp_path / "large.json"
        path.write_text(canonical_json(doc))
        code, out, err = run_cli(capsys, "decompose", path)
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.filterwarnings("error")
    def test_physical_document(self, tmp_path, capsys):
        doc = physical_to_document(physical_spec(1.0), hamiltonian_matrix(1.0, 1.0))
        doc["scattering"]["S_re"][0][0] = 1e200
        path = tmp_path / "large.json"
        path.write_text(canonical_json(doc))
        code, out, err = run_cli(capsys, "decompose", path)
        assert code == 2 and not out
        assert err == "invariant violated: S within float64 range; S^H S overflows\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, entry, message", [
        # C holds sqrt 2 times each part of Lq and Lp
        ("Lq_re", 1.5e308, "C within float64 range; sqrt 2 times Lq or Lp overflows"),
        ("Lp_im", -1.5e308, "C within float64 range; sqrt 2 times Lq or Lp overflows"),
        # 2 Lq overflows here but sqrt 2 Lq does not; the QR of the stack does
        ("Lq_re", 1e308, "F J F^T within float64 range; the QR of F overflows"),
    ])
    def test_physical_coupling(self, field, entry, message, tmp_path, capsys):
        doc = physical_to_document(physical_spec(1.0), hamiltonian_matrix(1.0, 1.0))
        doc["coupling"][field][0][0] = entry
        path = tmp_path / "large.json"
        path.write_text(canonical_json(doc))
        code, out, err = run_cli(capsys, "decompose", path)
        assert code == 2 and not out
        assert err == f"invariant violated: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", ["decompose", "text"])
    def test_input_matrix(self, route, tmp_path, capsys):
        # Sigma = diag(1e200, 1e-200) is symplectic; C# Sigma reaches 1e350
        doc = system_to_document(build_system(np.eye(2), 1e150 * np.eye(2)))
        doc["scattering"]["Sigma"] = [[1e200, 0.0], [0.0, 1e-200]]
        path = tmp_path / "large.json"
        path.write_text(canonical_json(doc))
        fmt = {"decompose": [], "text": ["--format", "text"]}[route]
        code, out, err = run_cli(capsys, "decompose", path, *fmt)
        assert code == 2 and not out
        assert len(err.splitlines()) == 1
        assert "B within float64 range; -C# Sigma overflows" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 4), (6, 16)])
    def test_coupling_of_rank_2n(self, n, m, tmp_path, capsys):
        # a C of rank 2n decides N = {0} without the stack; its squares,
        # C# C in A among them, overflow
        base = random_system(n, m, 1)
        doc = system_to_document(QuadratureSystem(R=base.R, C=1e160 * base.C, Sigma=base.Sigma))
        path = tmp_path / "large.json"
        path.write_text(canonical_json(doc))
        code, out, err = run_cli(capsys, "decompose", path)
        assert code == 2 and not out
        assert len(err.splitlines()) == 1
        assert err.startswith("invariant violated: C J C^T within float64 range; "
                              "the largest singular value of C, ")

    # the demo's R holds omega, and its stack C (J R)^j grows like omega^j
    BUILTIN = {
        "1e308": "R within float64 range; its Frobenius norm overflows",
        "1e200": "R within float64 range; its Frobenius norm overflows",
        "1e100": "observability stack within float64 range; C G^4 overflows, G = J R",
        "1e40": "F J F^T within float64 range; the largest singular value of F, 1.000e+200, "
                "overflows when squared",
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega", list(BUILTIN))
    @pytest.mark.parametrize("route", ["text", "example"])
    def test_builtin(self, route, omega, tmp_path, capsys):
        output = {"text": ["--format", "text"], "example": ["--output", tmp_path / "example.json"]}
        code, out, err = run_cli(capsys, "example", *output[route], "--omega", omega)
        assert code == 2 and not out
        assert err == f"invariant violated: {self.BUILTIN[omega]}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, field, message", [
        ("decompose", "R", "not a numeric array: int too large to convert to float"),
        ("verify", "V", "not a numeric array: int too large to convert to float"),
        ("verify", "residuals.pattern", "must be finite"),
    ], ids=["decompose_R", "verify_V", "verify_residual"])
    def test_integer_literal_beyond_float64(self, command, field, message, system_doc,
                                            tmp_path, capsys):
        # JSON integers have no bound: json.load returns 10**400 as an int
        report_path = tmp_path / "report.json"
        assert run_cli(capsys, "decompose", system_doc, "--output", report_path)[0] == 0
        files = {"decompose": [system_doc], "verify": [system_doc, report_path]}[command]
        doc = json.loads(files[-1].read_text())
        if field == "residuals.pattern":
            doc["residuals"]["pattern"] = 10**400
        else:
            doc[field][0][0] = 10**400
        files[-1].write_text(canonical_json(doc))
        code, out, err = run_cli(capsys, command, *files)
        assert code == 2 and not out
        assert err == f"invariant violated: document field '{field}'; {message}\n"

    @pytest.mark.filterwarnings("error")
    def test_verify_large_representable_a_hat(self, tmp_path, capsys):
        # C scaled by 1e100 puts entries near 1e200 into A = J R - C# C / 2;
        # with V = I the stored A_hat is A itself, representable, while the
        # squares in its Frobenius norm are not.  The Hautus margin on G = J R
        # is relative to sigma_max(C), so the scale of C does not move it
        base = random_system(3, 1, seed=1)
        system = build_system(base.R, 1e100 * base.C, base.Sigma)
        doc, report = tmp_path / "system.json", tmp_path / "report.json"
        doc.write_text(canonical_json(system_to_document(system)))
        report.write_text(canonical_json({
            "schema": SCHEMA_VERSION,
            "dims": {"k": 3, "l": 0, "d": 0},
            "labels": ["co"] * 6,
            "V": matrix_to_lists(np.eye(6)),
            "A_hat": matrix_to_lists(system.A),
            "B_hat": matrix_to_lists(system.B),
            "C_hat": matrix_to_lists(system.C),
            "D": matrix_to_lists(system.D),
            "residuals": {"symplecticity": 0.0, "pattern": 0.0, "reconstruction": 0.0},
        }))
        code, out, err = run_cli(capsys, "verify", doc, report)
        values = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        assert float(values["transformed_matrices"]) == 0.0
        for name in ("ccr_residual", "pattern_a", "observability_margin"):
            assert np.isfinite(float(values[name])), name
        assert (code, err) == (0, "")
        assert out.endswith("all checks passed\n")

    @pytest.mark.filterwarnings("error")
    def test_large_representable_scale(self, tmp_path, capsys):
        # the demo's system at omega = 1e20: F J F^T holds entries near
        # 1e200, so its Frobenius norm overflows; the skew test must not
        # take that norm
        path = tmp_path / "demo.json"
        path.write_text(canonical_json(physical_to_document(physical_spec(1.0),
                                                            hamiltonian_matrix(1e20, 1.0))))
        code, _, _ = run_cli(capsys, "decompose", path, "--format", "text")
        assert code == 0


class TestUndecodableDocuments:
    NOT_UTF8 = b"\xff\xfe{}"

    def test_analyze(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(self.NOT_UTF8)
        code, _, err = run_cli(capsys, "decompose", path, "--format", "text")
        assert code == 2
        assert "UTF-8" in err

    def test_verify_report(self, system_doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(self.NOT_UTF8)
        code, _, err = run_cli(capsys, "verify", system_doc, path)
        assert code == 2
        assert "UTF-8" in err


class TestCliSurface:
    """Every subcommand with its arguments.  A new route or flag has to be
    added here, so that it shows up in review."""

    ARGUMENTS = {
        "decompose": ["input", "--tolerance", "--format", "--output"],
        "verify": ["input", "report"],
        "example": ["--omega", "--lambda", "--gamma", "--tolerance", "--format", "--output"],
        "generate": ["--n", "--m", "--seed", "--output"],
    }

    def test_arguments(self):
        sub = next(action for action in symkal.cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        found = {name: [action.option_strings[0] if action.option_strings else action.dest
                        for action in parser._actions
                        if not isinstance(action, argparse._HelpAction)]
                 for name, parser in sub.choices.items()}
        assert found == self.ARGUMENTS

    def test_analyze_is_gone(self, system_doc, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", str(system_doc)])
        assert info.value.code == 2
        assert "analyze" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e-3, True])
    def test_document_tolerance_rejected(self, value, system_doc, capsys):
        # the flag's scale would otherwise be dropped without a word
        doc = json.loads(system_doc.read_text())
        doc["tolerance"] = value
        system_doc.write_text(canonical_json(doc))
        code, out, err = run_cli(capsys, "decompose", system_doc, "--tolerance", 1)
        assert code == 2 and not out
        assert err == ("invariant violated: document field 'tolerance'; "
                       "the rank scale is set by --tolerance, not by the document\n")


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
