"""The package's records, built on ``qollide.utils.Record``: construction
by position, keyword and default, frozen and value semantics, and ``repr``
in declaration order, one table row per record."""

import numpy as np
import pytest

from qollide import (
    BasisOrdering,
    BathSpec,
    CoherenceMap,
    CollectiveOps,
    CollisionParams,
    LadderState,
    MeqCoefficients,
    SweepResult,
    SweepRow,
    Trajectory,
    basis_ordering,
    build_collective_ops,
    scaling_sweep,
)
from qollide.baths import FAMILIES, Family

BASIS = basis_ordering(2)
DICKE = FAMILIES["dicke"]
SWEEP = scaling_sweep("dicke", [4, 8], CollisionParams(0.1, 1.0, 100.0), k_rule="quarter")
TRAJECTORY = Trajectory.from_states([0.0], [np.eye(2) / 2], 1.0)

#: ``(record, its fields in declaration order, positional arguments that
#: build one, the defaults of its trailing fields, frozen, value equality)``
RECORDS = [
    (BasisOrdering, ("N", "order", "position", "sizes", "offsets", "excitations"),
     (2, BASIS.order, BASIS.position, BASIS.sizes, BASIS.offsets, BASIS.excitations),
     {}, True, False),
    (CollectiveOps, ("N", "basis", "ladder"), (2, BASIS, build_collective_ops(2).ladder),
     {}, True, False),
    (BathSpec, ("N", "kind", "p_e", "n_bar", "k", "rho"), (4, "dicke", None, None, 1, None),
     {"p_e": None, "n_bar": None, "k": None, "rho": None}, True, False),
    (CoherenceMap, ("basis",), (BASIS,), {}, True, False),
    (Family, ("field", "flag", "conv", "check", "weights", "rates"),
     (DICKE.field, DICKE.flag, DICKE.conv, DICKE.check, DICKE.weights, DICKE.rates),
     {}, True, True),
    (CollisionParams, ("g", "tau", "p", "omega0"), (0.1, 1.0, 100.0, 1.0),
     {"omega0": 1.0}, True, True),
    (MeqCoefficients, ("lam", "eps", "r_e", "r_d", "mu", "pg_tau"),
     (0.5j, 0j, 1.0, 2.0, 1.0, 10.0), {}, True, True),
    (Trajectory, ("times", "mu", "states", "excited_pop", "temperature", "entropy",
                  "has_coherence"),
     tuple(getattr(TRAJECTORY, name) for name in ("times", "mu", "states", "excited_pop",
                                                  "temperature", "entropy", "has_coherence")),
     {}, False, False),
    (LadderState, ("N", "populations"), (2, np.array([0.25, 0.5, 0.25])), {}, True, False),
    (SweepRow, ("N", "k", "r_e", "r_d", "t_q", "T_q"), (4, 1, 4.0, 6.0, 0.1, 2.5),
     {}, True, True),
    (SweepResult, ("family", "k_rule", "N", "k", "r_e", "r_d", "t_q", "T_q", "slope_t_q",
                   "slope_T_q"),
     tuple(getattr(SWEEP, name) for name in ("family", "k_rule", "N", "k", "r_e", "r_d",
                                             "t_q", "T_q", "slope_t_q", "slope_T_q")),
     {}, True, False),
]
IDS = [row[0].__name__ for row in RECORDS]

#: A record of each value-equality class that differs from its table row.
OTHER = {
    Family: FAMILIES["product"],
    CollisionParams: CollisionParams(0.1, 1.0, 100.0, 3.0),
    MeqCoefficients: MeqCoefficients(0.5j, 0j, 1.0, 2.0, 1.0, 11.0),
    SweepRow: SweepRow(4, 1, 4.0, 6.0, 0.1, 2.0),
}


@pytest.mark.parametrize("cls, fields, args, defaults, frozen, eq", RECORDS, ids=IDS)
class TestRecord:
    def test_repr_in_declaration_order(self, cls, fields, args, defaults, frozen, eq):
        record = cls(*args)
        parts = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__name__}({parts})"

    def test_positional_keyword_and_default_construction(
        self, cls, fields, args, defaults, frozen, eq
    ):
        by_position = repr(cls(*args))
        assert repr(cls(**dict(zip(fields, args)))) == by_position
        assert repr(cls(*args[:1], **dict(zip(fields[1:], args[1:])))) == by_position
        given = {name: value for name, value in zip(fields, args)
                 if not (name in defaults and value == defaults[name])}
        assert repr(cls(**given)) == by_position

    def test_missing_or_unknown_argument_refused(self, cls, fields, args, defaults, frozen, eq):
        required = len(fields) - len(defaults)
        for bad_args, bad_kwargs in [
            (args[: required - 1], {}),  # the last required field missing
            ((), {}),
            (args, {"bogus": 1}),  # an unknown keyword
            ((*args, 0), {}),  # one positional too many
            (args, {fields[0]: args[0]}),  # a field given twice
        ]:
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)

    def test_frozen_refuses_assignment_and_deletion(self, cls, fields, args, defaults, frozen, eq):
        record = cls(*args)
        before = repr(record)
        if not frozen:
            setattr(record, fields[0], args[0])
            delattr(record, fields[0])
            return
        for change in (lambda: setattr(record, fields[0], args[0]),
                       lambda: delattr(record, fields[0]),
                       lambda: setattr(record, "extra", 1)):
            with pytest.raises(AttributeError):
                change()
        assert repr(record) == before

    def test_value_or_identity_equality(self, cls, fields, args, defaults, frozen, eq):
        a, b = cls(*args), cls(*args)
        assert a == a and not a != a
        assert (a == b) is eq and (a != b) is not eq
        if eq:
            assert hash(a) == hash(b)
            assert a != OTHER[cls]
            assert a.__eq__(args) is NotImplemented
        else:
            assert hash(a) == object.__hash__(a)


def test_sweep_rows_cached_on_the_frozen_result():
    rows = SWEEP.rows
    assert rows is SWEEP.rows
    assert [(row.N, row.k) for row in rows] == [(4, 1), (8, 2)]


def test_field_dict_in_declaration_order():
    params = CollisionParams(tau=1.0, p=100.0, g=0.1)
    assert list(params.as_dict().items()) == [("g", 0.1), ("tau", 1.0), ("p", 100.0),
                                              ("omega0", 1.0)]
