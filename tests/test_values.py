"""The value classes (SplittingType, OmegaClass, CheckResult,
VerificationReport, PipelineResult): construction, equality, hashing,
immutability of the frozen two, validation messages, repr and
pickling, all as the dataclasses they replace had them; and every
verification report's JSON, pinned byte for byte."""

import copy
import hashlib
import io
import itertools
import pickle
from fractions import Fraction

import pytest

from mirrorcalc import eulerdata
from mirrorcalc.bundles import OmegaClass, SplittingType
from mirrorcalc.cli import PRESETS, parse_bundle, run_command
from mirrorcalc.eulerdata import CheckResult, VerificationReport
from mirrorcalc.pipeline import PipelineCase, PipelineResult, run_pipeline
from mirrorcalc.qseries import ScalarQSeries


def test_splitting_type_construction_equality_and_hash():
    st = SplittingType(4, (2, 2), (1,))
    assert SplittingType(n=4, convex=[2, 2], concave=(1,)) == st
    assert SplittingType(4, (2, 2), concave=(1,)) == st
    assert SplittingType(5, (4, 2), (3, 1)).convex == (2, 4)
    assert SplittingType(5, (4, 2), (3, 1)).concave == (1, 3)
    assert st != SplittingType(4, (2, 2), (2,))
    assert st != (4, (2, 2), (1,))  # a tuple of the fields is not a splitting type
    assert hash(st) == hash(SplittingType(4, [2, 2], [1]))
    assert len({st, SplittingType(4, (2, 2), (1,)), SplittingType(4, (5,), ())}) == 2
    assert repr(st) == "SplittingType(n=4, convex=(2, 2), concave=(1,))"
    with pytest.raises(TypeError):
        SplittingType(4, (5,))
    with pytest.raises(TypeError):
        SplittingType(4, (5,), (), ())


def test_omega_class_construction_equality_and_hash():
    om = OmegaClass(Fraction(-1, 3), -1)
    assert OmegaClass(scalar=Fraction(-1, 3), h_exponent=-1) == om
    assert om != OmegaClass(Fraction(-1, 3), 0) and om != (Fraction(-1, 3), -1)
    assert {om: 1}[OmegaClass(Fraction(-1, 3), -1)] == 1
    assert repr(om) == "OmegaClass(scalar=Fraction(-1, 3), h_exponent=-1)"


@pytest.mark.parametrize("value, field", [(SplittingType(4, (5,), ()), "n"),
                                          (SplittingType(4, (5,), ()), "convex"),
                                          (OmegaClass(Fraction(5), 1), "scalar")])
def test_frozen_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1
    assert getattr(value, field) == before


@pytest.mark.parametrize("build, message", [
    (lambda: SplittingType(0, (1,), ()), "ambient dimension must be >= 1"),
    (lambda: SplittingType(2, (0,), ()),
     "all splitting degrees must be >= 1 (zero is not concavex)"),
    (lambda: SplittingType(2, (), (1, -3)),
     "all splitting degrees must be >= 1 (zero is not concavex)"),
    (lambda: OmegaClass(Fraction(0), 1), "omega class must be invertible"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_check_result_and_report():
    result = CheckResult(1, 0, 2, "fail", "residue=1")
    assert CheckResult(d=1, i=0, r=2, status="fail", witness="residue=1") == result
    assert CheckResult(1, 0, 2, "pass").witness == ""
    assert result != CheckResult(1, 0, 2, "fail") and result != (1, 0, 2, "fail", "residue=1")
    with pytest.raises(TypeError):
        hash(result)
    result.status = "pass"  # the report classes stay mutable
    assert result.status == "pass"
    one, two = VerificationReport("gluing", 2, 3), VerificationReport("gluing", 2, 3)
    one.results.append(result)
    assert two.results == [] and one != two  # each report owns its list
    assert VerificationReport(check="gluing", n=2, d_max=3, results=[result]) == one
    assert repr(one) == ("VerificationReport(check='gluing', n=2, d_max=3, results=[CheckResult("
                         "d=1, i=0, r=2, status='pass', witness='residue=1')])")
    assert one.to_dict() == {"check": "gluing", "n": 2, "d_max": 3, "results": [
        {"d": 1, "i": 0, "r": 2, "status": "pass", "witness": "residue=1"}], "all_pass": True}


def test_pipeline_result():
    result = run_pipeline(SplittingType(2, (), (3,)), 3)
    again = run_pipeline(SplittingType(2, (), (3,)), 3)
    assert result == again and result is not again
    fields = ("splitting", "order", "case", "K", "instanton", "mirror_shift", "scaling",
              "f_basis")
    values = [getattr(result, name) for name in fields]
    assert PipelineResult(*values) == result
    assert PipelineResult(**dict(zip(fields, values))) == result
    assert result.case is PipelineCase.CASE2 and result.f_basis is None
    other = PipelineResult(*values[:3], [Fraction(1)], *values[4:])
    assert other != result
    with pytest.raises(TypeError):
        hash(result)
    assert repr(result).startswith("PipelineResult(splitting=SplittingType(n=2, convex=(), "
                                   "concave=(3,)), order=3, case=<PipelineCase.CASE2: ")


@pytest.mark.parametrize("value", [
    SplittingType(4, (2, 2), (1,)), OmegaClass(Fraction(5), 1), CheckResult(1, 0, 2, "fail", "w"),
    VerificationReport("gluing", 2, 3, [CheckResult(1, 0, 0, "pass")]),
    PipelineResult(SplittingType(4, (5,), ()), 1, PipelineCase.CASE1, [Fraction(2875)], [],
                   ScalarQSeries(1, [0, 1]), ScalarQSeries(1, [1, 0]), None),
], ids=lambda value: type(value).__name__)
def test_copy_and_pickle_keep_the_value(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)


# sha256 of check(to_table(build_hypergeom_data(st, with_x), 3)).to_json()
# for each preset, recorded before the report classes left dataclasses
REPORT_SHA256 = {
    ("multicover", False, "check_gluing"): "44a863281383d8a8def72aa5d70200bb23dee202ed6fc0c1438a3f7af5e16779",
    ("multicover", False, "check_reciprocity"): "2148561adbc49ff648b9629b10309f4b3efdfb93388ff489812108ed7ff26e24",
    ("multicover", False, "check_mirror_linked"): "6ee0b9a7571631f97f2a86bf8fe7649b81050bb299f15faab3b87188193acc16",
    ("multicover", False, "check_degree_bound"): "c92ffe152c85dca0585888244e3a08fb6853c836b8376816c80d73e9ab4cdb19",
    ("multicover", True, "check_gluing"): "44a863281383d8a8def72aa5d70200bb23dee202ed6fc0c1438a3f7af5e16779",
    ("multicover", True, "check_reciprocity"): "2148561adbc49ff648b9629b10309f4b3efdfb93388ff489812108ed7ff26e24",
    ("multicover", True, "check_mirror_linked"): "6ee0b9a7571631f97f2a86bf8fe7649b81050bb299f15faab3b87188193acc16",
    ("multicover", True, "check_degree_bound"): "c92ffe152c85dca0585888244e3a08fb6853c836b8376816c80d73e9ab4cdb19",
    ("local-p2", False, "check_gluing"): "e57f6be169af32d0d009acab977e45100d344f0f23e85518a89a386ce9174ca5",
    ("local-p2", False, "check_reciprocity"): "a00bb3fbeb2f3a1393e186edc51a62ebfecb182c8b7290c7df0885c1e9d239ac",
    ("local-p2", False, "check_mirror_linked"): "e4a83b8924526abb1c84ec5d401bebf99d9c897bc356f60dcdb84af13229c588",
    ("local-p2", False, "check_degree_bound"): "6ae5cd70a59cc28245d7d38c6b4776f9fec9c4431a1be9706f1a6db1abcfb193",
    ("local-p2", True, "check_gluing"): "e57f6be169af32d0d009acab977e45100d344f0f23e85518a89a386ce9174ca5",
    ("local-p2", True, "check_reciprocity"): "a00bb3fbeb2f3a1393e186edc51a62ebfecb182c8b7290c7df0885c1e9d239ac",
    ("local-p2", True, "check_mirror_linked"): "e4a83b8924526abb1c84ec5d401bebf99d9c897bc356f60dcdb84af13229c588",
    ("local-p2", True, "check_degree_bound"): "6ae5cd70a59cc28245d7d38c6b4776f9fec9c4431a1be9706f1a6db1abcfb193",
    ("p3-concavex", False, "check_gluing"): "ace3c3a983a3ea2ca38345732ff42c19a6322e01573a001a7cafa534fa7bbca9",
    ("p3-concavex", False, "check_reciprocity"): "4f596fdafd57d56e3df4199b57d39501dec3b3959a5339c71a00fbf4e95a5245",
    ("p3-concavex", False, "check_mirror_linked"): "1fb3c2b3ed97ac21fceb29d535b2277cef42159a2e1e767d8156b2a72e650e19",
    ("p3-concavex", False, "check_degree_bound"): "32d7cfeaee9f245167bd0fe39c180cd369ee92031a2fc940dff3f9dda7a2bfba",
    ("p3-concavex", True, "check_gluing"): "ace3c3a983a3ea2ca38345732ff42c19a6322e01573a001a7cafa534fa7bbca9",
    ("p3-concavex", True, "check_reciprocity"): "4f596fdafd57d56e3df4199b57d39501dec3b3959a5339c71a00fbf4e95a5245",
    ("p3-concavex", True, "check_mirror_linked"): "1fb3c2b3ed97ac21fceb29d535b2277cef42159a2e1e767d8156b2a72e650e19",
    ("p3-concavex", True, "check_degree_bound"): "32d7cfeaee9f245167bd0fe39c180cd369ee92031a2fc940dff3f9dda7a2bfba",
    ("p4-concavex", False, "check_gluing"): "838e55c9cd41ad850421b21c14f06becb0ce07c8daef4cf27b1b23e28a36d562",
    ("p4-concavex", False, "check_reciprocity"): "6bcfd4953e403e96d55246fc1e2b17fc844b66dd3830ed9dd57495ddae75d667",
    ("p4-concavex", False, "check_mirror_linked"): "68f46a54d5577b3b191a1b23537e751653cae730a29f5aaa195b78208812fb80",
    ("p4-concavex", False, "check_degree_bound"): "2bec7540387551a7705ef5263a0b1bd876244b73a672430ef007975fa5c3ff1e",
    ("p4-concavex", True, "check_gluing"): "838e55c9cd41ad850421b21c14f06becb0ce07c8daef4cf27b1b23e28a36d562",
    ("p4-concavex", True, "check_reciprocity"): "6bcfd4953e403e96d55246fc1e2b17fc844b66dd3830ed9dd57495ddae75d667",
    ("p4-concavex", True, "check_mirror_linked"): "68f46a54d5577b3b191a1b23537e751653cae730a29f5aaa195b78208812fb80",
    ("p4-concavex", True, "check_degree_bound"): "2bec7540387551a7705ef5263a0b1bd876244b73a672430ef007975fa5c3ff1e",
    ("quintic", False, "check_gluing"): "838e55c9cd41ad850421b21c14f06becb0ce07c8daef4cf27b1b23e28a36d562",
    ("quintic", False, "check_reciprocity"): "6bcfd4953e403e96d55246fc1e2b17fc844b66dd3830ed9dd57495ddae75d667",
    ("quintic", False, "check_mirror_linked"): "68f46a54d5577b3b191a1b23537e751653cae730a29f5aaa195b78208812fb80",
    ("quintic", False, "check_degree_bound"): "bc73a7afe07157c298c224ccde4a573d4c64a5dfe318f4bc88c6d9649d6462f3",
    ("quintic", True, "check_gluing"): "838e55c9cd41ad850421b21c14f06becb0ce07c8daef4cf27b1b23e28a36d562",
    ("quintic", True, "check_reciprocity"): "6bcfd4953e403e96d55246fc1e2b17fc844b66dd3830ed9dd57495ddae75d667",
    ("quintic", True, "check_mirror_linked"): "68f46a54d5577b3b191a1b23537e751653cae730a29f5aaa195b78208812fb80",
    ("quintic", True, "check_degree_bound"): "bc73a7afe07157c298c224ccde4a573d4c64a5dfe318f4bc88c6d9649d6462f3",
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("with_x", [False, True])
def test_report_json_is_pinned(preset, with_x):
    n, bundle, _ = PRESETS[preset]
    table = eulerdata.to_table(eulerdata.build_hypergeom_data(parse_bundle(bundle, n), with_x), 3)
    for check in ("check_gluing", "check_reciprocity", "check_mirror_linked",
                  "check_degree_bound"):
        text = getattr(eulerdata, check)(table).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[preset, with_x, check]


def test_verify_sweep_is_pinned():
    # every check on every preset at --dmax 1..6, with and without x, in
    # text and json: one sha256 over argv, stdout, stderr and exit code of
    # the 480 runs, recorded before the verifier's bindings became int moves
    digest, codes = hashlib.sha256(), []
    for check, preset, d_max, with_x, fmt in itertools.product(
            ("gluing", "reciprocity", "linking", "degree-bound"), sorted(PRESETS), range(1, 7),
            (False, True), ("text", "json")):
        n, bundle, _ = PRESETS[preset]
        argv = ["verify", check, "--n", str(n), "--bundle", bundle, "--dmax", str(d_max),
                "--format", fmt] + ["--with-x"] * with_x
        out, err = io.StringIO(), io.StringIO()
        code = run_command(argv, out, err)
        digest.update(repr((argv, out.getvalue(), err.getvalue(), code)).encode())
        codes.append(code)
    assert (codes.count(0), codes.count(1)) == (384, 96)
    assert digest.hexdigest() == "1a66c7d6ec016ccfdd30191262c3d66bf288d9b5d2e868f05f5797ec874a9eb5"
