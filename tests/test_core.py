import pickle
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest

from brickeval import (
    BRICK_LIBRARY,
    Brick,
    BrickStructure,
    OrientedDim,
    UnknownDimension,
    WorldConfig,
    analyze,
    legalize,
    library_lookup,
    make_brick,
    parse_structure,
    random_target,
    rasterize,
    serialize_structure,
)
from helpers import oracle_voxels, random_structure

EXPECTED_LIBRARY = [
    (2, 4), (4, 2), (2, 6), (6, 2), (1, 2), (2, 1), (1, 4), (4, 1),
    (1, 6), (6, 1), (1, 8), (8, 1), (1, 1), (2, 2),
]


def test_library_has_exactly_14_variants():
    assert [(d.h, d.w) for d in BRICK_LIBRARY] == EXPECTED_LIBRARY
    assert len(set(BRICK_LIBRARY)) == 14


def test_library_lookup_valid():
    d = library_lookup(1, 4)
    assert (d.h, d.w) == (1, 4)
    assert library_lookup(8, 1).area == 8


@pytest.mark.parametrize("h,w", [(3, 3), (3, 5), (0, 1), (2, 8), (8, 2), (16, 1)])
def test_library_lookup_rejects_unknown(h, w):
    message = rf"^{h}x{w} is not an allowed brick dimension$"
    with pytest.raises(UnknownDimension, match=message):
        library_lookup(h, w)
    with pytest.raises(UnknownDimension, match=message):
        OrientedDim(h, w)


def test_world_config_defaults_and_validation():
    w = WorldConfig()
    assert w.shape == (20, 20, 20)
    assert w.n_voxels == 8000
    assert w.contains(19, 19, 19) and not w.contains(20, 0, 0)
    with pytest.raises(ValueError):
        WorldConfig(0, 20, 20)


def brick_voxels(brick, world):
    # A lone brick's voxels and in-bounds verdict, from the library.
    s = BrickStructure((brick,))
    counts = rasterize(s, world)
    assert counts.max(initial=0) <= 1
    return {tuple(int(c) for c in v) for v in np.argwhere(counts)}, analyze(s, world).fully_in_bounds


def test_brick_voxels_in_bounds(world):
    vox, ok = brick_voxels(make_brick(1, 4, 5, 6, 0), world)
    assert vox == {(5, 6, 0), (5, 7, 0), (5, 8, 0), (5, 9, 0)}
    assert ok


def test_brick_voxels_clipped_at_boundary(world):
    b = make_brick(2, 4, 19, 18, 0)
    vox, ok = brick_voxels(b, world)
    assert vox == oracle_voxels(b, world)
    assert vox == {(19, 18, 0), (19, 19, 0)}
    assert not ok


def test_brick_voxels_above_world(world):
    vox, ok = brick_voxels(make_brick(2, 2, 0, 0, 20), world)
    assert vox == set() and not ok


def test_brick_voxels_matches_oracle_randomly(world):
    rng = np.random.default_rng(11)
    for _ in range(50):
        for b in random_structure(rng, world, 8, in_bounds=False):
            vox, ok = brick_voxels(b, world)
            assert vox == oracle_voxels(b, world)
            assert ok == (len(vox) == b.dim.area)


def test_brick_voxels_full_when_in_bounds(world):
    rng = np.random.default_rng(12)
    for _ in range(50):
        for b in random_structure(rng, world, 8, in_bounds=True):
            vox, ok = brick_voxels(b, world)
            assert ok and len(vox) == b.dim.area


def test_make_brick_rejects_negative_anchor():
    with pytest.raises(ValueError):
        make_brick(1, 1, -1, 0, 0)
    with pytest.raises(ValueError):
        make_brick(1, 1, 0, 0, -2)


def test_brick_equality_and_fields():
    a = Brick(library_lookup(2, 4), 1, 2, 3)
    b = make_brick(2, 4, 1, 2, 3)
    assert a == b
    assert (a.h, a.w, a.x, a.y, a.z) == (2, 4, 1, 2, 3)
    vox, _ = brick_voxels(a, WorldConfig())
    assert vox == {(u, v, 3) for u in (1, 2) for v in (2, 3, 4, 5)}


@dataclass(frozen=True)
class FrozenStructure:
    # The contract BrickStructure keeps: a frozen dataclass over the brick tuple.
    bricks: tuple = ()


def test_columnar_structure_keeps_the_dataclass_contract(world):
    rng = np.random.default_rng(13)
    s = random_structure(rng, world, 30, in_bounds=False, min_bricks=2)
    parsed, report = parse_structure(serialize_structure(s))
    assert report.parsed_ok and parsed._bricks is None  # columns only so far
    twin = BrickStructure(s.bricks)
    reference = FrozenStructure(s.bricks)
    assert parsed == twin and twin == parsed and parsed != s.bricks
    assert hash(parsed) == hash(twin) == hash(reference)
    assert repr(parsed) == repr(twin) == repr(reference).replace("FrozenStructure", "BrickStructure")
    assert len(parsed) == len(twin) == len(s)
    assert list(parsed) == list(twin) == list(s.bricks)
    for i in (0, 1, -1):
        assert parsed[i] == twin[i] and type(parsed[i]) is Brick
    assert parsed[1:] == twin[1:]
    for form in (parsed, twin):
        copy = pickle.loads(pickle.dumps(form))
        assert copy == form and hash(copy) == hash(form)
        with pytest.raises(FrozenInstanceError):
            form.bricks = ()
        with pytest.raises(FrozenInstanceError):
            del form.columns
        with pytest.raises(ValueError):
            form.columns[0, 2] = 1
    assert parsed.columns.dtype == twin.columns.dtype == np.int64
    assert np.array_equal(parsed.columns, twin.columns)


def test_columns_of_values_past_int64_are_exact_python_ints():
    s = BrickStructure((make_brick(1, 2, 2**63, 0, 5), make_brick(2, 2, 0, 10**30, 2**63 - 1)))
    assert s.columns.dtype == object
    assert s.columns.tolist() == [[1, 2, 2**63, 0, 5], [2, 2, 0, 10**30, 2**63 - 1]]
    parsed, report = parse_structure(serialize_structure(s))
    assert report.parsed_ok and parsed == s and parsed.columns.dtype == object
    empty, _ = parse_structure("### Bricks:\n")
    assert empty == BrickStructure(()) and empty.columns.shape == BrickStructure(()).columns.shape == (0, 5)


def test_producers_build_columns_and_no_bricks(world, monkeypatch):
    def no_brick(*args):
        raise AssertionError("a Brick was built")

    monkeypatch.setattr(Brick, "__new__", no_brick)
    built = legalize(random_target(seed=3, fill_prob=0.3, grounded=True, world=world), world=world)
    crlf, report = parse_structure(serialize_structure(built).replace("\n", "\r\n"))
    ten_digits, _ = parse_structure("1x2 (1234567890,0,0)\n2x2 (0,0,1)")
    huge, _ = parse_structure(f"1x2 ({2**63},0,0)\n2x2 (0,0,1)")
    assert report.parsed_ok and len(crlf) == len(built) > 100
    for s, dtype in ((built, np.int64), (crlf, np.int64), (ten_digits, np.int64), (huge, object)):
        assert s._bricks is None and s.columns.dtype == dtype and s.columns.shape == (len(s), 5)
    assert np.array_equal(crlf.columns, built.columns) and crlf == built
    assert ten_digits.columns.tolist() == [[1, 2, 1234567890, 0, 0], [2, 2, 0, 0, 1]]


def test_bricks_tuple_is_built_once(world):
    for s in (random_structure(np.random.default_rng(5), world, 10), parse_structure("1x2 (0,0,0)")[0]):
        assert s._bricks is None
        assert s.bricks is s.bricks and s[0] is s.bricks[0]
