"""The model zoo: its one change of basis, and a model of its own on each call."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoo import bench_dense, dense_member, dense_model, family_member, golden_model, heis, \
    inverse, transform_model

_entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def changes_of_basis(draw, d: int) -> np.ndarray:
    """``(I + L) D (I + U)``: ``L`` strictly lower and ``U`` strictly upper
    triangular, and ``D`` diagonal with ``|det D|`` not 1."""
    diag = draw(st.lists(_entries.filter(bool), min_size=d, max_size=d)
                .filter(lambda v: abs(math.prod(v)) != 1))
    full = np.array(draw(st.lists(_entries, min_size=d * d, max_size=d * d)),
                    dtype=object).reshape(d, d)
    eye = np.eye(d, dtype=int).astype(object)
    return (eye + np.tril(full, -1)).dot(np.diag(diag)).dot(eye + np.triu(full, 1))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([heis, lambda: family_member(2), lambda: golden_model("f11_dim5")]),
       st.data())
def test_moving_a_model_and_moving_it_back_gives_the_model(build, data):
    model = build()
    a = data.draw(changes_of_basis(model.dim))
    assert np.all(a.dot(np.array(inverse(a), dtype=object)) == np.eye(model.dim, dtype=int))
    moved = transform_model(model, a, "moved")
    assert transform_model(moved, inverse(a), model.name) == model


@pytest.mark.parametrize("build", [lambda: dense_member(2), dense_model, lambda: bench_dense(1, 3),
                                   lambda: golden_model("f11_dim5"), lambda: golden_model(1)],
                         ids=["dense_member", "dense_model", "bench_dense", "f11_dim5", "family"])
def test_each_call_returns_a_model_of_its_own_that_has_read_nothing(build):
    """The first model keeps its inverse metric, signature and eta (x) eta
    once read; the next call's model is equal to it, but has read none."""
    first = build()
    assert first.ginv is not None and first.signature and first.eta_eta is not None
    second = build()
    assert second == first and second is not first
    assert not {"ginv", "signature", "eta_eta"} & set(vars(second))
