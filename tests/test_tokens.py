import re
import tracemalloc

import numpy as np
import pytest

from brickeval import (
    BrickStructure,
    MalformedPointToken,
    OutOfWorldCoordinate,
    PROMPT_TEMPLATE,
    WorldConfig,
    build_prompt,
    parse_pointcloud,
    parse_structure,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval.tokens import (
    _PLAIN_POINTS_RE,
    _PLAIN_RE,
    OUTPUT_HEADER,
    MalformedEntry,
    _parse_plain,
    _parse_plain_points,
)
from helpers import collision_free_structure, oracle_pointcloud, oracle_structure, random_structure


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


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


def test_long_bad_brick_token_keeps_its_text_and_quotes_it_short():
    token = "x" * 1000
    _, r = parse_structure(token)
    (entry,) = r.malformed_lines
    assert entry.text == token
    assert len(entry.reason) < 100 and "(1000 characters)" in entry.reason


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


def mutate_brick_text(rng, text):
    """One seeded edit of a completion, aimed at the edges of the one-pass grammar."""

    def pick(pattern):
        spots = [m.span() for m in re.finditer(pattern, text)]
        return spots[int(rng.integers(len(spots)))] if spots else None

    kind = int(rng.choice(7, p=[0.34] + [0.11] * 6))  # a third are edits the one-pass grammar accepts
    if kind == 0 and (spot := pick(r"[(,]")):  # tabs or extra spaces before "(" or around a comma
        ws = str(rng.choice([" ", "\t", "  ", " \t "]))
        at = spot[1] if text[spot[0]] == "," and rng.random() < 0.5 else spot[0]
        return text[:at] + ws + text[at:]
    if kind == 1:  # a line break or a non-ASCII space anywhere, inside a token too
        at = int(rng.integers(len(text) + 1))
        return text[:at] + str(rng.choice(["\r", "\n", "\x0b", "\x0c", "\u3000"])) + text[at:]
    if kind == 2 and (spot := pick(r"[0-9x]")):  # an Arabic-Indic digit, or an uppercase X
        c = text[spot[0]]
        return text[: spot[0]] + ("X" if c == "x" else chr(0x660 + int(c))) + text[spot[1] :]
    if kind == 3 and (spot := pick(r"\d+")):  # 10 digits zero-padded, 20 digits, or past the digit limit
        digits = str(rng.choice([text[slice(*spot)].zfill(10), "9" * 20, "0" * 4999 + "1"]))
        return text[: spot[0]] + digits + text[spot[1] :]
    if kind == 4 and (spot := pick(r"\d+x\d+")):  # a dimension outside the library
        return text[: spot[0]] + "3x3" + text[spot[1] :]
    if kind == 5:  # a second header, at the start of some line
        at = pick(r"^|\n")[1]
        return text[:at] + OUTPUT_HEADER + "\n" + text[at:]
    at = pick(r"\n|$")[0]  # a trailing comma on some line
    return text[:at] + "," + text[at:]


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(6, 6, 6), WorldConfig(3, 9, 5)], ids=str)
def test_parse_structure_matches_oracle_on_mutants(world):
    # Serialized structures in both layouts, with and without a header,
    # each with one to three edits: every result equals the oracle's
    # line-by-line reading, whichever path parsed it.
    rng = np.random.default_rng(19)
    paths = {"plain": 0, "loop": 0}
    for i in range(600):
        s = random_structure(rng, world, 30, in_bounds=bool(i % 3))
        text = serialize_structure(s, ("one_per_line", "comma_inline")[i % 2])
        if i // 2 % 2:
            text = OUTPUT_HEADER + "\n" + text
        for _ in range(1 + i % 3):
            text = mutate_brick_text(rng, text)
        bricks, report = parse_structure(text)
        got = (bricks.columns.tolist(), report.parsed_ok, report.brick_count, report.empty_response,
               [(e.line_number, e.text) for e in report.malformed_lines])
        bricks_want, *want = oracle_structure(text)
        assert got == ([list(b) for b in bricks_want], *want), text[:300]
        paths["plain" if _parse_plain(text) is not None else "loop"] += 1
    assert min(paths.values()) > 0, paths


def test_one_pass_parse_of_a_maximal_line_holds_no_state_per_line():
    # About a 1 MiB request line of brick lines, and one of comma-inline
    # tokens on a single line. The one-pass grammar's repeats are
    # possessive, so a match keeps no backtracking state per line or per
    # token (a plain line repeat traced 98.6 MiB on the first text, and a
    # plain in-line repeat over tokens of plain repeats 60 MiB on the second).
    lines = "1x1 (0,0,0)\n" * 40000 + "1x1 (0,0,1)\n" * 40000
    inline = ", ".join(["2x4 (12,7,3)"] * 75000)
    for text, count, last in ((lines, 80000, [1, 1, 0, 0, 1]), (inline, 75000, [2, 4, 12, 7, 3])):
        (bricks, report), peak = traced_peak(parse_structure, text)
        assert report.parsed_ok and report.brick_count == count and bricks.columns[-1].tolist() == last
        assert peak < 16 << 20, peak


# The one-pass brick grammar with \d for digits and its lines as (LINE\n)*LINE:
# the reference for the language of _PLAIN_RE, which writes [0-9] and one
# flat repeat of tokens joined by a comma or a run of line ends.
REFERENCE_TOKEN = r"\d{1,9}+x\d{1,9}+[ \t]*+\(\d{1,9}+[ \t]*+,[ \t]*+\d{1,9}+[ \t]*+,[ \t]*+\d{1,9}+\)"
REFERENCE_LINE = rf"[ \t]*+(?:{REFERENCE_TOKEN}(?:[ \t]*+,[ \t]*+{REFERENCE_TOKEN})*+[ \t]*+)?+"
REFERENCE_PLAIN_RE = re.compile(
    rf"([ \t\n]*+{re.escape(OUTPUT_HEADER)}[ \t]*+\n)?(?:{REFERENCE_LINE}\n)*+{REFERENCE_LINE}", re.ASCII
)


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(6, 6, 6), WorldConfig(3, 9, 5)], ids=str)
def test_plain_grammar_accepts_what_the_reference_accepts(world):
    # The mutant corpus of test_parse_structure_matches_oracle_on_mutants,
    # one-line comma-inline texts in several dresses, integers of 9 and
    # 10 digits and unicode digits: both patterns accept the same texts,
    # with the same header span.
    rng = np.random.default_rng(19)
    texts = []
    for i in range(600):
        s = random_structure(rng, world, 30, in_bounds=bool(i % 3))
        text = serialize_structure(s, ("one_per_line", "comma_inline")[i % 2])
        if i // 2 % 2:
            text = OUTPUT_HEADER + "\n" + text
        for _ in range(1 + i % 3):
            text = mutate_brick_text(rng, text)
        texts.append(text)
    for i in range(100):
        inline = serialize_structure(random_structure(rng, world, 12), "comma_inline")
        if i % 2:
            inline = inline.replace(", ", "\t,  ").replace(" (", "\t(")
        texts += [inline, inline + "\n", OUTPUT_HEADER + "\n" + inline, "\n \n" + OUTPUT_HEADER + "\t\n\n" + inline + "\n\n",
                  "\t" + inline + " \t", inline + "\n\t\n"]
    for digits in ("1" * 9, "0" * 9, "1" * 10, "0" * 10, "\u0661", "\uff11", "1\u0660"):
        for at in range(5):  # at each integer of a token
            h, w, x, y, z = [digits if i == at else "1" for i in range(5)]
            texts += [f"{h}x{w} ({x},{y},{z})", f"1x2 (0,0,0), {h}x{w} ({x}, {y}, {z})\n"]
    # Joins where a flat token repeat differs in structure from lines:
    # blank lines of spaces and tabs, a comma at a line end or start,
    # "\r\n" line ends, and runs of line ends around the header.
    joins = [", ", "\n", "\n \t\n\t\n", "\n\n\n", ",\n", "\n,", " ,\n ", "\n , ", ",\n\n", "\r\n", "\n\r\n", " \t\n"]
    heads = ["", "\n\n", "\n \n\t\n", OUTPUT_HEADER + "\n\n\n", "\n\n" + OUTPUT_HEADER + " \t\n \t\n",
             "\n\n\n" + OUTPUT_HEADER + "\n", OUTPUT_HEADER + "\r\n", "\n\n" + OUTPUT_HEADER]
    tails = ["", "\n\n\n", "\n\t \n", ",", "\n,", "\r\n", " \t"]
    for i in range(300):
        tokens = serialize_structure(random_structure(rng, world, 6)).split("\n")
        body = tokens[0] + "".join(joins[j] + t for j, t in zip(rng.integers(len(joins) if i % 2 else 4, size=6), tokens[1:]))
        texts.append(heads[i % len(heads)] + body + tails[i // 2 % len(tails)])
    accepted = 0
    for text in texts:
        got, want = _PLAIN_RE.fullmatch(text), REFERENCE_PLAIN_RE.fullmatch(text)
        assert (got is None) == (want is None), text[:300]
        if got is not None:
            assert got.span(1) == want.span(1), text[:300]
            accepted += 1
    assert 0 < accepted < len(texts)


# The one-pass point grammar with \d for digits: the reference for the
# language of _PLAIN_POINTS_RE, which writes [0-9].
REFERENCE_POINT = r"\(\d{1,9}+\s*+,\s*+\d{1,9}+\s*+,\s*+\d{1,9}+\)"
REFERENCE_POINTS_RE = re.compile(rf"\s*+{REFERENCE_POINT}(?:\s*+,\s*+{REFERENCE_POINT})*+\s*+", re.ASCII)


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(3, 9, 5)], ids=str)
def test_plain_point_grammar_accepts_what_the_reference_accepts(world):
    # Valid lists and their mutants, every ASCII whitespace character
    # around the commas and the list, integers of 9 and 10 digits, unicode
    # digits, a trailing comma and the empty text: both patterns accept
    # the same texts.
    rng = np.random.default_rng(27)
    texts = ["", " ", ","]
    for i in range(400):
        grid = np.zeros(world.shape, dtype=bool)
        grid.flat[rng.choice(world.n_voxels, min(int(rng.choice([1, 3, 20])), world.n_voxels))] = True
        text = serialize_pointcloud(grid)
        for _ in range(i % 3):
            text = mutate_point_list(rng, text, world)
        texts += [text, text + ",", text + " ,"]
    for space in " \t\n\r\x0b\x0c":
        texts += [f"(1,2,3){space},{space}(4,5,6)", f"{space}(1,2,3),(4,5,6){space}", f"(1,2,3){space}, (4,5,6),{space}"]
    for digits in ("1" * 9, "0" * 9, "1" * 10, "0" * 10, "\u0661", "\uff11", "1\u0660"):
        for at in range(3):  # at each integer of a point
            x, y, z = [digits if i == at else "1" for i in range(3)]
            texts += [f"({x},{y},{z})", f"(0,0,0), ({x}, {y}, {z})\n"]
    accepted = 0
    for text in texts:
        got, want = _PLAIN_POINTS_RE.fullmatch(text), REFERENCE_POINTS_RE.fullmatch(text)
        assert (got is None) == (want is None), repr(text[:300])
        accepted += got is not None
    assert 0 < accepted < len(texts)


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
    "( 1,2,3)",              # whitespace just inside a parenthesis
    "(1,2,3 )",
    "(" + "0" * 5000 + ",2,3)",  # past the interpreter's digit limit
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
    # The first point outside the world is named, even when a malformed gap follows.
    inside = ", ".join(f"({k},{k},{k})" for k in range(5))
    text = f"{inside}, (1,20,3), {inside}, (20,0,0), {inside}"
    for bad in (text, text + " (0,0,0)"):
        with pytest.raises(OutOfWorldCoordinate, match=r"^point \(1,20,3\) outside 20x20x20 world$"):
            parse_pointcloud(bad, world)


def mutate_point_list(rng, text, world):
    """One seeded edit of a point list, aimed at the edges of the one-pass grammar."""

    def pick(pattern):
        spots = [m.span() for m in re.finditer(pattern, text)]
        return spots[int(rng.integers(len(spots)))] if spots else None

    kind = int(rng.integers(9))
    if kind == 0 and (spot := pick(r"\d+")):  # ten or more digits with leading zeros, e.g. 0000000001
        return text[: spot[0]] + text[slice(*spot)].zfill(int(rng.integers(10, 13))) + text[spot[1] :]
    if kind == 1 and (spot := pick(r"\d+")):  # past the interpreter's digit limit
        return text[: spot[0]] + "0" * 4999 + "1" + text[spot[1] :]
    if kind == 2 and (spot := pick(",")):  # other ASCII whitespace around a comma
        ws = ["".join(rng.choice(list(" \t\n\r\x0b\x0c"), int(rng.integers(0, 3)))) for _ in range(2)]
        return text[: spot[0]] + ws[0] + "," + ws[1] + text[spot[1] :]
    if kind == 3 and (spot := pick(r"[()]")):  # whitespace just inside a parenthesis
        at = spot[1] if text[spot[0]] == "(" else spot[0]
        return text[:at] + str(rng.choice([" ", "\t", "\n"])) + text[at:]
    if kind == 4:  # a point outside the world, here in the middle of a plain list
        out = [int(rng.integers(0, n)) for n in world.shape]
        axis = int(rng.integers(3))
        out[axis] = world.shape[axis] + int(rng.integers(0, 3))
        point = "({},{},{})".format(*out)
        at = pick(", |$")[0]
        return text[:at] + ", " + point + text[at:] if text else point
    if kind == 5:  # a non-ASCII space before or after the list, which str.strip removes
        space = str(rng.choice(["\u3000", "\x85", "\xa0", "\x1c"]))
        return space + text if rng.random() < 0.5 else text + space
    # insert, delete or replace one character
    at = int(rng.integers(len(text) + 1))
    c = str(rng.choice(list("(),0912 -x\t\u3000")))
    if kind in (7, 8) and text:
        at = min(at, len(text) - 1)
        return text[:at] + (c if kind == 8 else "") + text[at + 1 :]
    return text[:at] + c + text[at:]


def assert_reads_like_oracle(text, world):
    """parse_pointcloud gives the oracle's grid, or raises the oracle's error for the same point."""
    expected = oracle_pointcloud(text, world)
    try:
        got = parse_pointcloud(text, world)
    except (MalformedPointToken, OutOfWorldCoordinate) as exc:
        assert isinstance(expected, str), (text[:200], exc)
        name, _, point = expected.partition(" ")
        assert type(exc).__name__ == name, (text[:200], exc)
        if point:
            assert str(exc) == f"point {point} outside {world.dim_x}x{world.dim_y}x{world.dim_z} world"
        return name
    assert not isinstance(expected, str), (text[:200], expected)
    assert got.dtype == bool and (got == expected).all()
    return "plain" if _parse_plain_points(text, world) is not None else "loop"


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(6, 6, 6), WorldConfig(3, 9, 5)],
                         ids=str)
def test_parse_pointcloud_matches_oracle_on_mutants(world):
    rng = np.random.default_rng(15)
    outcomes = {}
    for i in range(1000):
        grid = np.zeros(world.shape, dtype=bool)
        grid.flat[rng.choice(world.n_voxels, min(int(rng.choice([0, 1, 3, 20, 150])), world.n_voxels))] = True
        text = serialize_pointcloud(grid)
        for _ in range(i % 4):
            text = mutate_point_list(rng, text, world)
        outcome = assert_reads_like_oracle(text, world)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert set(outcomes) == {"plain", "loop", "MalformedPointToken", "OutOfWorldCoordinate"}, outcomes
    # Texts the one-pass grammar rejects but the token loop reads.
    for text in ["(0000000001,2,3)", "\u3000(1,2,3)", "(1,2,3),\r\x0b\x0c(1,2,3)\u3000"]:
        assert assert_reads_like_oracle(text, world) == "loop", repr(text)


def test_parse_of_a_maximal_point_list_holds_no_state_per_point(world):
    # 130,000 points in about 1.1 MB, a maximal target_points request
    # line. The one-pass grammar's repeats are possessive, so the match
    # keeps no backtracking state per point (a plain repeat of points
    # holds 8 MiB here, plain repeats throughout 75 MiB); the translated
    # text and the integers take 4.1 MiB.
    points = np.random.default_rng(16).integers(0, 10, (130000, 3))
    text = ", ".join(map("({},{},{})".format, *points.T.tolist()))
    grid, peak = traced_peak(parse_pointcloud, text, world)
    expected = np.zeros(world.shape, dtype=bool)
    expected[tuple(points.T)] = True
    assert len(text) > 1_100_000 and (grid == expected).all()
    assert peak < 8 << 20


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
