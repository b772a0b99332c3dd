import numpy as np
import pytest

from brickeval import (
    BrickStructure,
    MalformedPointToken,
    OutOfWorldCoordinate,
    PROMPT_TEMPLATE,
    WorldConfig,
    build_prompt,
    make_brick,
    parse_pointcloud,
    parse_structure,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval.tokens import OUTPUT_HEADER, MalformedEntry, _parse_plain
from helpers import collision_free_structure, random_structure


def one_token_parses(text):
    # A "\r\n" ending fails the one-pass grammar, so the line-by-line path runs.
    return [parse_structure(text), parse_structure(text + "\r\n")]


def test_parse_brick_line_basic():
    for s, r in one_token_parses("1x4 (5,6,0)"):
        assert r.parsed_ok and len(s) == 1
        b = s[0]
        assert (b.h, b.w, b.x, b.y, b.z) == (1, 4, 5, 6, 0)


@pytest.mark.parametrize("text,expected", [
    ("  2x2 (0, 0, 19) ", (2, 2, 0, 0, 19)),
    ("2x2(0,0,0)", (2, 2, 0, 0, 0)),
    ("8x1 (12 , 0 , 3)", (8, 1, 12, 0, 3)),
])
def test_parse_brick_line_whitespace_forms(text, expected):
    for s, r in one_token_parses(text):
        assert r.parsed_ok and len(s) == 1
        b = s[0]
        assert (b.h, b.w, b.x, b.y, b.z) == expected


@pytest.mark.parametrize("text", [
    "2X2 (0,0,0)",        # uppercase X
    "2×2 (0,0,0)",   # multiplication sign
    "1x4 (-1,0,0)",       # negative coordinate
    "1x4 (0.5,0,0)",      # non-integer
    "1x4 5,6,0",          # missing parens: three tokens at top-level commas
    "1x4 ( 5,6,0)",       # space after opening paren
    "1x4 (5,6)",          # two coordinates
    "1x4 (5,6,0) extra",  # trailing junk
    "x4 (5,6,0)",
    "1x (5,6,0)",
    "١x٤ (5,6,0)",  # non-ASCII digits
    "",                   # no token at all: an empty response
])
def test_parse_brick_line_rejects(text):
    tokens = {"1x4 5,6,0": ["1x4 5", "6", "0"], "": []}.get(text, [text])
    expected = [MalformedEntry(1, t, f"not a brick token: {t!r}") for t in tokens]
    for s, r in one_token_parses(text):
        assert len(s) == 0 and not r.parsed_ok
        assert r.malformed_lines == expected
        assert r.empty_response == (text == "")


def test_parse_brick_line_unknown_dimension():
    for s, r in one_token_parses("3x5 (0,0,0)"):
        assert len(s) == 0 and not r.parsed_ok
        assert r.malformed_lines == [
            MalformedEntry(1, "3x5 (0,0,0)", "3x5 is not an allowed brick dimension")
        ]


def test_parse_structure_one_per_line():
    s, r = parse_structure("1x2 (0,0,0)\n1x2 (0,2,0)\n1x4 (0,0,1)")
    assert r.parsed_ok and r.brick_count == 3 and not r.empty_response
    assert [b.z for b in s] == [0, 0, 1]


def test_parse_structure_skips_header_and_blanks():
    s, r = parse_structure("### Bricks:\n\n1x1 (0,0,0)\n\n2x2 (5,5,0)\n")
    assert r.parsed_ok and r.brick_count == 2
    assert not r.malformed_lines


def test_parse_structure_header_only_is_not_ok():
    s, r = parse_structure("### Bricks:\n")
    assert not r.parsed_ok and r.brick_count == 0
    assert not r.empty_response and not r.malformed_lines


def test_parse_structure_header_not_first_is_malformed():
    _, r = parse_structure("1x1 (0,0,0)\n### Bricks:\n")
    assert not r.parsed_ok and r.brick_count == 1
    assert len(r.malformed_lines) == 1 and r.malformed_lines[0].line_number == 2


def test_parse_structure_inline_commas():
    s, r = parse_structure("2x4 (1,2,3), 1x1 (0,0,0)")
    assert r.parsed_ok and r.brick_count == 2


def test_parse_structure_trailing_comma_is_malformed():
    s, r = parse_structure("1x2 (0,0,0),")
    assert not r.parsed_ok and r.brick_count == 1
    assert r.malformed_lines[0].reason == "empty brick token"


def test_parse_structure_trailing_period_is_malformed():
    _, r = parse_structure("1x2 (0,0,0).")
    assert not r.parsed_ok and len(r.malformed_lines) == 1


def test_parse_structure_empty_inputs():
    for text in ("", "   ", "\n\n", "\t \r\n"):
        s, r = parse_structure(text)
        assert len(s) == 0
        assert r.empty_response and not r.parsed_ok and r.brick_count == 0


def test_parse_structure_records_line_numbers_and_text():
    _, r = parse_structure("1x1 (0,0,0)\nwhat\n3x3 (0,0,0)")
    assert [(e.line_number, e.text) for e in r.malformed_lines] == [
        (2, "what"),
        (3, "3x3 (0,0,0)"),
    ]
    assert "3x3" in r.malformed_lines[1].reason


def test_parse_structure_mixed_means_not_ok():
    s, r = parse_structure("1x1 (0,0,0)\n???")
    assert not r.parsed_ok and r.brick_count == 1
    assert len(s) == 1


def test_parsed_ok_iff_bricks_and_no_malformed():
    rng = np.random.default_rng(3)
    corpus = [
        "1x1 (0,0,0)",
        "1x1 (0,0,0)\nbroken",
        "broken",
        "",
        "### Bricks:",
        "1x1 (0,0,0), 2x2 (3,3,3)",
    ]
    for _ in range(200):
        n = int(rng.integers(0, 60))
        corpus.append(bytes(rng.integers(32, 127, n).tolist()).decode("ascii"))
    for text in corpus:
        _, r = parse_structure(text)
        assert r.parsed_ok == (r.brick_count >= 1 and not r.malformed_lines)
        if r.empty_response:
            assert not r.parsed_ok


def test_round_trip_both_layouts(world):
    rng = np.random.default_rng(4)
    for i in range(300):
        s = random_structure(rng, world, 30, in_bounds=bool(i % 2))
        for layout in ("one_per_line", "comma_inline"):
            text = serialize_structure(s, layout)
            s2, r = parse_structure(text)
            assert r.parsed_ok and r.brick_count == len(s)
            assert s2 == s


def test_one_pass_parse_equals_line_by_line(world):
    # A plain completion is read in one pass; its \r\n twin fails the
    # one-pass grammar and goes line by line. Both must agree.
    rng = np.random.default_rng(9)
    for i in range(200):
        s = random_structure(rng, world, 30, in_bounds=bool(i % 2))
        for layout in ("one_per_line", "comma_inline"):
            body = serialize_structure(s, layout)
            if i % 3 == 0:
                body = body.replace("\n", "\n\n  ").replace(", ", " ,\t")
            for text in (body + "\n", OUTPUT_HEADER + "\n" + body, "\n" + OUTPUT_HEADER + " \n" + body + "\n"):
                twin = text.replace("\n", "\r\n")
                assert _parse_plain(text) is not None and _parse_plain(twin) is None
                bricks, report = parse_structure(text)
                assert (bricks, report) == parse_structure(twin)
                assert bricks == s and report.parsed_ok


def test_serialize_empty_structure():
    assert serialize_structure(BrickStructure(())) == ""
    with pytest.raises(ValueError):
        serialize_structure(BrickStructure(()), "sideways")


def test_appending_garbage_keeps_bricks_but_flips_ok(world):
    rng = np.random.default_rng(5)
    s = collision_free_structure(rng, world, 10)
    good = serialize_structure(s)
    bad_text = good + "\nnot a brick"
    s2, r = parse_structure(bad_text)
    assert s2 == s and not r.parsed_ok


def test_parse_pointcloud_round_trip(world):
    rng = np.random.default_rng(6)
    for p in (0.0, 0.05, 0.5):
        grid = rng.random(world.shape) < p
        text = serialize_pointcloud(grid)
        back = parse_pointcloud(text, world)
        assert (back == grid).all()


def test_serialize_pointcloud_is_sorted(world):
    grid = np.zeros(world.shape, dtype=bool)
    grid[3, 1, 2] = grid[0, 5, 5] = grid[3, 0, 9] = True
    assert serialize_pointcloud(grid) == "(0,5,5), (3,0,9), (3,1,2)"


def test_parse_pointcloud_duplicates_idempotent(world):
    g = parse_pointcloud("(1,2,3), (1,2,3)", world)
    assert g.sum() == 1 and g[1, 2, 3]


def test_parse_pointcloud_empty(world):
    assert parse_pointcloud("", world).sum() == 0
    assert parse_pointcloud("  \n ", world).sum() == 0


@pytest.mark.parametrize("text", [
    "(1,2)",
    "(1,2,3) (4,5,6)",       # missing comma between points
    "(1,2,3),, (4,5,6)",
    "(1,2,3),",
    "oops (1,2,3)",
    "(1,2,3) trailing",
    "(-1,2,3)",
])
def test_parse_pointcloud_malformed(text, world):
    with pytest.raises(MalformedPointToken):
        parse_pointcloud(text, world)


def test_parse_pointcloud_out_of_world(world):
    with pytest.raises(OutOfWorldCoordinate):
        parse_pointcloud("(1, 2, 99)", world)
    small = WorldConfig(6, 6, 6)
    with pytest.raises(OutOfWorldCoordinate):
        parse_pointcloud("(0,0,6)", small)


def test_prompt_template_verbatim():
    assert PROMPT_TEMPLATE == (
        "Create a LEGO model of the input 3D point cloud.\n"
        "Format your response as a list of bricks: <brick dimensions> <brick position>,"
        " where the brick position is (x,y,z).\n"
        "Allowed brick dimensions are 2x4, 4x2, 2x6, 6x2, 1x2, 2x1, 1x4, 4x1, 1x6, 6x1,"
        " 1x8, 8x1, 1x1, 2x2.\n"
        "All bricks are 1 unit tall.\n"
        "\n"
        "### Input Point Cloud:\n"
    )


def test_build_prompt_appends_points(world):
    grid = np.zeros(world.shape, dtype=bool)
    grid[0, 0, 0] = grid[2, 3, 4] = True
    prompt = build_prompt(grid)
    assert prompt.startswith("Create a LEGO model of the input 3D point cloud.")
    assert prompt.endswith("### Input Point Cloud:\n(0,0,0), (2,3,4)")


def test_output_header_round_trip(world):
    rng = np.random.default_rng(7)
    s = random_structure(rng, world, 10)
    s2, r = parse_structure(OUTPUT_HEADER + "\n" + serialize_structure(s))
    assert r.parsed_ok and s2 == s


def test_parser_fuzz_never_raises():
    rng = np.random.default_rng(8)
    for _ in range(5000):
        n = int(rng.integers(0, 80))
        blob = bytes(rng.integers(0, 256, n).tolist()).decode("latin-1")
        structure, report = parse_structure(blob)
        assert isinstance(report.brick_count, int)
        assert report.parsed_ok == (report.brick_count >= 1 and not report.malformed_lines)


def test_parse_huge_integers_do_not_crash():
    # Either rejected by the interpreter's digit limit or parsed exactly.
    _, r = parse_structure("1x1 (" + "9" * 5000 + ",0,0)")
    assert r.brick_count + len(r.malformed_lines) == 1
    s, r2 = parse_structure("1x1 (99999999999999999999,0,0)")
    assert r2.parsed_ok and s[0].x == 99999999999999999999
