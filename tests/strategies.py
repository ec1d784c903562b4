"""Hypothesis strategies for random level-0 objects and maps, shared by the
property tests."""

from hypothesis import reject, strategies as st

from effpath.core import SynthesisFailed, make_object, synthesize_morphism
from effpath.path import fibration_decide


@st.composite
def objects(draw):
    """1-3 cells, realizers in {0, 1}, hom-sets within {0, 1, 2} with a
    non-empty diagonal; kept when the structure codes exist."""
    cells = "abc"[:draw(st.integers(1, 3))]
    realizer = {c: draw(st.integers(0, 1)) for c in cells}
    hom = {(a, b): draw(st.frozensets(st.integers(0, 2), min_size=a == b))
           for a in cells for b in cells}
    try:
        return make_object(cells, realizer, hom)
    except SynthesisFailed:
        reject()


def _tracked(draw, B, A):
    f = synthesize_morphism(
        B, A, {b: draw(st.sampled_from(A.cells)) for b in B.cells})
    if f is None:
        reject()
    return f


@st.composite
def maps(draw):
    """A tracked map between two random objects."""
    return _tracked(draw, draw(objects()), draw(objects()))


@st.composite
def fibrations(draw):
    """A random map that is a fibration."""
    f = draw(maps())
    if not fibration_decide(f):
        reject()
    return f


@st.composite
def parallel_maps(draw):
    """Two tracked maps between the same two random objects."""
    B, A = draw(objects()), draw(objects())
    return _tracked(draw, B, A), _tracked(draw, B, A)
