"""The package's result records: frozen, slotted, and equal, hashed and
printed field by field, with the text pinned to the dataclass form they
had before the ``errors.Record`` base replaced ``dataclasses``.  The value
types (matrices, subspaces, multivectors, the symplectic space) derive
from the same base and keep their own text and equality."""

import copy
import itertools
import operator
import pickle

import pytest

from infker.errors import DimensionMismatchError, NotPrimeError, Record
from infker.exterior import Multivector, VariableOrder
from infker.extraspecial import ExtraspecialGroup, GroupElement, make_group
from infker.inflation import CertificateRecord, CertificateReport, KernelSandwich
from infker.isotropic import IsotropicCatalog, PerpChart
from infker.prime_linalg import Matrix, SparseMatrix, Subspace
from infker.symplectic import (
    DegreeCheck,
    LadderSequence,
    PremetReport,
    ProbeReport,
    Sl2Report,
    SymplecticSpace,
)
from infker.verify import CriterionResult

GROUP = ExtraspecialGroup(3, 1)
CLASS = Multivector(3, 1, {(0,): 1, (0, 1): 2})

#: One instance of every record: its class, its fields by keyword in
#: declaration order, and its repr as the dataclass printed it.
RECORDS = [
    (VariableOrder, dict(m=3), "VariableOrder(m=3)"),
    (ExtraspecialGroup, dict(p=3, m=1), "ExtraspecialGroup(p=3, m=1)"),
    (GroupElement, dict(group=GROUP, z=1, v=(0, 2)),
     "GroupElement(group=ExtraspecialGroup(p=3, m=1), z=1, v=(0, 2))"),
    (KernelSandwich, dict(p=2, m=3, r=4, ideal_dim=14, vanishing_dim=15, gap=1,
                          gap_classes=("x2^x3^y2^y3",)),
     "KernelSandwich(p=2, m=3, r=4, ideal_dim=14, vanishing_dim=15, gap=1, "
     "gap_classes=('x2^x3^y2^y3',))"),
    (CertificateRecord, dict(g=(1, 0), dim_perp=1, dim_radical=1, dim_complement=0,
                             dim_annihilator=0, vacuous=True, member=False, witness=None),
     "CertificateRecord(g=(1, 0), dim_perp=1, dim_radical=1, dim_complement=0, "
     "dim_annihilator=0, vacuous=True, member=False, witness=None)"),
    (CertificateReport, dict(p=3, m=1, degree=2, target=CLASS, records=()),
     "CertificateReport(p=3, m=1, degree=2, target=Multivector(p=3, m=1, 'x1 + 2*x1^y1'), "
     "records=())"),
    (IsotropicCatalog, dict(p=2, m=1, r=1, count=3, subspaces=()),
     "IsotropicCatalog(p=2, m=1, r=1, count=3, subspaces=())"),
    (PerpChart, dict(p=2, g=(1, 0), f=0, c=(0,), gram=((0,),), lead=0, f_ann=0, t=()),
     "PerpChart(p=2, g=(1, 0), f=0, c=(0,), gram=((0,),), lead=0, f_ann=0, t=())"),
    (DegreeCheck, dict(r=2, bracket_ok=True, raise_shift_ok=True, lower_shift_ok=True,
                       weight_ok=False),
     "DegreeCheck(r=2, bracket_ok=True, raise_shift_ok=True, lower_shift_ok=True, "
     "weight_ok=False)"),
    (Sl2Report, dict(p=3, m=2, sigma=-1, ok=True, degrees=()),
     "Sl2Report(p=3, m=2, sigma=-1, ok=True, degrees=())"),
    (LadderSequence, dict(start=CLASS, weight=1, entries=(CLASS,)),
     "LadderSequence(start=Multivector(p=3, m=1, 'x1 + 2*x1^y1'), weight=1, "
     "entries=(Multivector(p=3, m=1, 'x1 + 2*x1^y1'),))"),
    (ProbeReport, dict(r=2, rank=5, corank=1, injective=False, surjective=True),
     "ProbeReport(r=2, rank=5, corank=1, injective=False, surjective=True)"),
    (PremetReport, dict(p=3, m=2, r=1, product=6, divisible=True,
                        sufficient_bound_holds=False, irreducible=False),
     "PremetReport(p=3, m=2, r=1, product=6, divisible=True, "
     "sufficient_bound_holds=False, irreducible=False)"),
    (CriterionResult, dict(cid=1, description="d", ok=True, seconds=0.5, budget=1.0,
                           details={}),
     "CriterionResult(cid=1, description='d', ok=True, seconds=0.5, budget=1.0, details={})"),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]
#: Records with a dict field hash as the dataclass did: not at all.
UNHASHABLE = {CriterionResult}


def test_every_record_is_listed():
    assert len(RECORDS) == 14
    assert all(issubclass(cls, Record) for cls, _, _ in RECORDS)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert all(getattr(by_position, name) == value for name, value in fields.items())
    assert cls.__slots__ == tuple(fields)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_class_and_fields(cls, fields, text):
    rec, twin = cls(**fields), cls(**fields)
    values = tuple(fields.values())
    assert rec == twin and not rec != twin
    assert rec != values and values != rec
    assert rec != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match=cls.__name__):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == hash(values)
    for name in fields:
        other = cls(**{**fields, name: 7}) if cls is not ExtraspecialGroup else (
            cls(**{**fields, name: 5}))
        assert rec != other and not rec == other


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_fields_refuse_assignment_and_deletion(cls, fields, text):
    rec = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert rec == cls(**fields)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_replace_copies_with_changed_fields(cls, fields, text):
    rec = cls(**fields)
    name = next(iter(fields))
    value = 5 if cls is ExtraspecialGroup else 7
    changed = rec._replace(**{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert changed == cls(**{**fields, name: value})
    assert rec == cls(**fields)
    assert rec._replace() == rec
    with pytest.raises(TypeError):
        rec._replace(no_such_field=1)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, text):
    rec = cls(**fields)
    assert copy.copy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_construction_checks_the_fields():
    with pytest.raises(TypeError):
        ProbeReport(2, 5, 1, False)
    with pytest.raises(TypeError):
        ProbeReport(2, 5, 1, False, True, None)
    with pytest.raises(TypeError):
        ProbeReport(2, 5, 1, False, surjective=True, injective=False)
    with pytest.raises(TypeError):
        PerpChart(2, (1, 0), 0, (0,), ((0,),), 0, 0)


def test_criterion_details_default_to_a_fresh_dict():
    first = CriterionResult(1, "d", True, 0.5, 1.0)
    second = CriterionResult(1, "d", True, 0.5, 1.0)
    assert first.details == {} and first.details is not second.details
    assert first == second


def test_group_checks_its_prime_first_then_its_rank():
    with pytest.raises(NotPrimeError):
        ExtraspecialGroup(4, 0)
    with pytest.raises(ValueError, match="need m >= 1"):
        ExtraspecialGroup(3, 0)
    with pytest.raises(NotPrimeError):
        ExtraspecialGroup(p=1, m=2)
    with pytest.raises(NotPrimeError):
        GROUP._replace(p=9)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_group_elements_order_by_z_then_v(p, m):
    elements = list(make_group(p, m).elements())
    key = operator.attrgetter("z", "v")
    assert sorted(elements) == sorted(elements, key=key)
    assert sorted(reversed(elements)) == sorted(elements, key=key)
    for a, b in itertools.product(elements, repeat=2):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            assert compare(a, b) == compare(key(a), key(b))


def read_space(p, m):
    """A space whose cache already holds its Gram matrix."""
    space = SymplecticSpace(p, m)
    assert space.gram.rows == 2 * m and space._cache
    return space


#: One value of every value type, a twin equal to it but built another way,
#: a value that differs from it, and its repr.
VALUES = [
    (Matrix(3, [[1, 2], [0, 1]]), Matrix(3, [[4, -1], [3, 1]]), Matrix(3, [[1, 2], [0, 2]]),
     "Matrix(p=3, 2x2)"),
    (SparseMatrix(3, 2, [[(0, 1)]]), SparseMatrix(3, 2, [[(1, 3), (0, 2), (0, 2)]]),
     SparseMatrix(3, 2, [[(1, 1)]]), "SparseMatrix(p=3, 2x1)"),
    # equal by span, whatever rows generate it
    (Subspace.zero(3, 4), Subspace.from_rows(3, 4, [[0, 0, 0, 0], [3, 6, 0, 9]]),
     Subspace.from_rows(3, 4, [[1, 0, 0, 0]]), "Subspace(p=3, dim=0, ambient=4)"),
    (Subspace.full(3, 2), Subspace.from_rows(3, 2, [[1, 1], [0, 2]]), Subspace.zero(3, 2),
     "Subspace(p=3, dim=2, ambient=2)"),
    # equal by (p, m), whatever the cache holds
    (SymplecticSpace(3, 2), read_space(3, 2), SymplecticSpace(3, 3), "SymplecticSpace(p=3, m=2)"),
    # equal by terms, whatever coefficients reduce to them
    (CLASS, Multivector(3, 1, {(0, 1): 5, (0,): 4, (1,): 3}), Multivector(3, 1, {(0,): 1}),
     "Multivector(p=3, m=1, 'x1 + 2*x1^y1')"),
]

VALUE_IDS = [f"{type(value).__name__}-{i}" for i, (value, _, _, _) in enumerate(VALUES)]


def test_every_value_type_is_listed():
    types = {type(value) for value, _, _, _ in VALUES}
    assert types == {Matrix, SparseMatrix, Subspace, SymplecticSpace, Multivector}
    assert all(issubclass(cls, Record) for cls in types)


@pytest.mark.parametrize("value,twin,other,text", VALUES, ids=VALUE_IDS)
def test_value_repr_is_its_own_text(value, twin, other, text):
    assert repr(value) == repr(twin) == text


@pytest.mark.parametrize("value,twin,other,text", VALUES, ids=VALUE_IDS)
def test_value_equality_and_hash(value, twin, other, text):
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != other and not value == other
    assert value != object() and value != value._values


def test_multivector_hash_is_over_its_sorted_terms():
    """Its terms are a dict, so the hash is taken over them sorted, in
    whatever order they were given."""
    assert hash(CLASS) == hash((3, 1, (((0,), 1), ((0, 1), 2))))
    assert hash(CLASS) == hash(Multivector(3, 1, {(0, 1): 2, (0,): 1}))


def test_multivector_terms_refuse_writes():
    """The terms are a read-only view, whether the constructor or ``_of``
    built the value: a write raises TypeError, and the value, its hash and
    its place in a set stay as they were."""
    value = Multivector(3, 1, {(0,): 1})
    before, held = hash(value), {value}
    for built in (value, value.wedge(Multivector.one(3, 1))):
        with pytest.raises(TypeError):
            built.terms[(1,)] = 2
        with pytest.raises(TypeError):
            del built.terms[(0,)]
    assert dict(value.terms) == {(0,): 1} and str(value) == "x1"
    assert hash(value) == before and value in held


def test_space_equality_does_not_read_its_cache():
    fresh, read = SymplecticSpace(2, 2), read_space(2, 2)
    assert fresh == read and hash(fresh) == hash(read)
    assert fresh._cache == {}
    assert SymplecticSpace._fields == ("p", "m")


@pytest.mark.parametrize("value,twin,other,text", VALUES, ids=VALUE_IDS)
def test_value_fields_refuse_assignment_and_deletion(value, twin, other, text):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert value == twin and repr(value) == text


@pytest.mark.parametrize("value,twin,other,text", VALUES, ids=VALUE_IDS)
def test_value_copy_and_pickle_round_trip(value, twin, other, text):
    clones = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
              value._replace())
    for clone in clones:
        assert type(clone) is type(value) and clone == value and repr(clone) == text
        assert hash(clone) == hash(value)


def test_copied_space_starts_with_an_empty_cache():
    space = read_space(3, 2)
    for clone in (copy.copy(space), copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
        assert clone == space and clone._cache == {}


def test_unpickling_a_matrix_validates_it_again():
    """Pickle rebuilds a value through its constructor, so a ragged
    matrix that was never valid does not load."""
    bad = Matrix._make(3, ((1, 2), (0,)), 2)
    with pytest.raises(DimensionMismatchError, match="ragged"):
        pickle.loads(pickle.dumps(bad))
