"""Lexer, parser, validation, canonical rendering, lambda translation."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep.query import (
    MAX_NESTING,
    OPERATORS,
    AttrRef,
    BoolOp,
    Comparison,
    Duration,
    LexError,
    NumberLit,
    ParseError,
    QueryError,
    SemanticError,
    canonical_text,
    create_operator_graph,
    parse_query,
    query_hash,
    to_nfn_expression,
    tokenize,
)

Q1 = "WINDOW(GPS_S1, 4s)"
Q2 = "FILTER(WINDOW(GPS_S1, 4s),'latitude'<50)"
Q3 = (
    "JOIN(FILTER(WINDOW(GPS_S1, 4s), 'latitude'<50), "
    "FILTER(WINDOW(GPS_S2, 4s), 'latitude'<50), GPS_S1.'ts' = GPS_S2.'ts')"
)
Q4 = (
    "HEATMAP(0.01, 49.86, 49.92, 8.61, 8.69, "
    "JOIN(WINDOW(GPS_S1, 1m), WINDOW(GPS_S2, 1m), GPS_S1.'ts' = GPS_S2.'ts'))"
)
Q5 = (
    "JOIN(PREDICT(5m, WINDOW(PLUG_S1, 1m)), PREDICT(5m, WINDOW(PLUG_S2, 1m)), "
    "PLUG_S1.'ts' = PLUG_S2.'ts')"
)
Q6 = (
    "FILTER(JOIN(PREDICT(5m, WINDOW(PLUG_S1, 1m)), PREDICT(5m, WINDOW(PLUG_S2, 1m)), "
    "PLUG_S1.'ts' = PLUG_S2.'ts'), 'predicted_load'>20)"
)

ALL_QUERIES = [Q1, Q2, Q3, Q4, Q5, Q6]


# ---------------------------------------------------------------------------
# lexer


def test_tokenize_window_query():
    kinds = [(t.kind, t.text) for t in tokenize(Q1)]
    assert kinds == [
        ("IDENT", "WINDOW"),
        ("LPAREN", "("),
        ("IDENT", "GPS_S1"),
        ("COMMA", ","),
        ("DURATION", "4s"),
        ("RPAREN", ")"),
    ]


def test_tokenize_comparison():
    toks = tokenize("'latitude'<50")
    assert [(t.kind, t.value) for t in toks] == [
        ("ATTR", "latitude"),
        ("CMP", None),
        ("NUMBER", 50.0),
    ]
    assert toks[1].text == "<"


def test_tokenize_unterminated_quote():
    with pytest.raises(LexError) as err:
        tokenize("WINDOW('x")
    assert err.value.pos == 7


def test_tokenize_decimals_durations_times():
    toks = tokenize("0.25 4s 2m 12:34:56.789 <= -3.5")
    assert [t.kind for t in toks] == ["NUMBER", "DURATION", "DURATION", "TIME", "CMP", "NUMBER"]
    assert toks[0].value == 0.25
    assert toks[1].value == Duration(4, "s")
    assert toks[2].value == Duration(2, "m")
    assert toks[5].value == -3.5


def test_tokenize_arrow_forms():
    assert [t.kind for t in tokenize("a -> b")] == ["IDENT", "ARROW", "IDENT"]
    assert [t.kind for t in tokenize("a → b")] == ["IDENT", "ARROW", "IDENT"]


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("4sx", [("IDENT", "4sx", 0)]),
        ("12ab", [("IDENT", "12ab", 0)]),
        ("1_000", [("IDENT", "1_000", 0)]),
        ("1.5s", [("NUMBER", "1.5", 0), ("IDENT", "s", 3)]),
        ("-5s", [("NUMBER", "-5", 0), ("IDENT", "s", 2)]),
        ("12.", [("NUMBER", "12", 0), ("DOT", ".", 2)]),
        ("12a.5", [("IDENT", "12a", 0), ("DOT", ".", 3), ("NUMBER", "5", 4)]),
        ("12.5.3", [("NUMBER", "12.5", 0), ("DOT", ".", 4), ("NUMBER", "3", 5)]),
        ("->5", [("ARROW", "->", 0), ("NUMBER", "5", 2)]),
        ("=>", [("CMP", "=", 0), ("CMP", ">", 1)]),
        (" \t x \n", [("IDENT", "x", 3)]),
        ("0s", "duration must be at least 1 unit (at offset 0)"),
        ("- 1", "stray '-' (at offset 0)"),
    ],
)
def test_tokenize_where_the_alternatives_meet(text, tokens):
    """Which token kind wins where a digit, '-' or '=' could start several."""
    if isinstance(tokens, str):  # the LexError it raises
        with pytest.raises(LexError) as err:
            tokenize(text)
        assert str(err.value) == tokens
    else:
        assert [(t.kind, t.text, t.pos) for t in tokenize(text)] == tokens


@pytest.mark.parametrize(
    "text, tokens",
    [("a" + " " * 60_000, [("IDENT", "a", 0)]), (" \t\n" * 20_000, [])],
)
def test_tokenize_trailing_white_space_is_linear(text, tokens):
    """A long white-space tail (an Add carries up to 64 KiB of text) lexes at once.

    Scanning into the tail backtracks through it once per start position, which
    takes minutes at this length.
    """
    start = time.perf_counter()
    assert [(t.kind, t.text, t.pos) for t in tokenize(text)] == tokens
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "text, message",
    [
        ("WINDOW(GPS_S1; 4s)", "illegal character ';' (at offset 13)"),
        ("WINDOW(GPSé, 4s)", "illegal character 'é' (at offset 10)"),
        ("FILTER(WINDOW(GPS_S1, 4s), 'latitude' < ٣)", "illegal character '٣' (at offset 40)"),
        ("1٣", "illegal character '٣' (at offset 1)"),
    ],
)
def test_tokenize_illegal_character(text, message):
    """Identifiers, numbers and durations are ASCII; other letters and digits are illegal."""
    with pytest.raises(LexError) as err:
        tokenize(text)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# parser: the six reference queries


def test_parse_window_leaf():
    tree = parse_query(Q1)
    assert tree.kind == "WINDOW"
    assert tree.is_leaf
    assert tree.params == ["GPS_S1", Duration(4, "s")]


def test_parse_filter_over_window():
    tree = parse_query(Q2)
    assert tree.kind == "FILTER"
    assert tree.left.kind == "WINDOW"
    cond = tree.params[0]
    assert cond == Comparison(AttrRef("latitude"), "<", NumberLit(50.0))


def test_parse_join_tree_depth_three():
    tree = parse_query(Q3)
    assert tree.kind == "JOIN"
    assert [c.kind for c in tree.children] == ["FILTER", "FILTER"]
    assert tree.left.left.kind == "WINDOW"
    assert tree.right.left.kind == "WINDOW"
    cond = tree.params[0]
    assert cond == Comparison(
        AttrRef("ts", alias="GPS_S1"), "=", AttrRef("ts", alias="GPS_S2")
    )


def test_parse_heatmap_params():
    tree = parse_query(Q4)
    assert tree.kind == "HEATMAP"
    assert tree.params[:5] == [0.01, 49.86, 49.92, 8.61, 8.69]
    assert tree.left.kind == "JOIN"


def test_parse_predict_join():
    tree = parse_query(Q5)
    assert tree.kind == "JOIN"
    assert [c.kind for c in tree.children] == ["PREDICT", "PREDICT"]
    assert tree.left.params == [Duration(5, "m")]
    assert tree.left.left.kind == "WINDOW"


def test_parse_filtered_prediction():
    tree = parse_query(Q6)
    assert tree.kind == "FILTER"
    assert tree.left.kind == "JOIN"
    assert tree.params[0] == Comparison(AttrRef("predicted_load"), ">", NumberLit(20.0))


def test_parse_sequence_with_arrow():
    tree = parse_query(
        "SEQUENCE(FILTER(WINDOW(GPS_S1, 1s), 'latitude'=50) -> "
        "FILTER(WINDOW(GPS_S2, 1s), 'latitude'=50))"
    )
    assert tree.kind == "SEQUENCE"
    assert [c.kind for c in tree.children] == ["FILTER", "FILTER"]


def test_parse_aggregate_both_forms():
    a = parse_query("SUM('speed', WINDOW(GPS_S1, 4s))")
    b = parse_query("SUM(DataStream, 'speed', WINDOW(GPS_S1, 4s))")
    assert a.kind == "SUM" and a.params[0] == AttrRef("speed")
    assert canonical_text(a) == canonical_text(b)
    bare = parse_query("SUM(speed, WINDOW(GPS_S1, 4))")
    assert canonical_text(bare) == canonical_text(parse_query("SUM('speed', WINDOW(GPS_S1, 4))"))


def test_parse_count_window_extent():
    tree = parse_query("WINDOW(GPS_S1, 10)")
    assert tree.params[1] == 10


def test_keywords_case_insensitive_aliases_not():
    assert parse_query("window(GPS_S1, 4s)").kind == "WINDOW"
    with pytest.raises(SemanticError):
        parse_query("WINDOW(gps_s1, 4s)")


def test_format_data_round_trips():
    tree = parse_query("FILTER(Data, WINDOW(GPS_S1, 4s), 'latitude'<50)")
    assert tree.fmt == "Data"
    assert canonical_text(tree).startswith("FILTER(Data,")
    assert parse_query(canonical_text(tree)) == tree


# ---------------------------------------------------------------------------
# rejection paths


def test_unknown_operator_is_semantic_error():
    with pytest.raises(SemanticError):
        parse_query("FOO(GPS_S1)")


def test_unbalanced_parens_is_parse_error():
    with pytest.raises(ParseError):
        parse_query("WINDOW(GPS_S1, 4s")
    with pytest.raises(ParseError):
        parse_query(Q1 + ")")


def test_bad_argument_count():
    with pytest.raises(SemanticError):
        parse_query("WINDOW(GPS_S1)")
    with pytest.raises(SemanticError):
        parse_query("WINDOW(GPS_S1, 4s, 9s)")


def test_non_numeric_window_size():
    with pytest.raises(SemanticError):
        parse_query("WINDOW(GPS_S1, abc)")
    with pytest.raises(SemanticError):
        parse_query("WINDOW(GPS_S1, 2.5)")


def test_unknown_attribute_rejected():
    with pytest.raises(SemanticError):
        parse_query("FILTER(WINDOW(GPS_S1, 4s), 'no_such'<50)")
    with pytest.raises(SemanticError):
        parse_query(
            "JOIN(WINDOW(GPS_S1, 4s), WINDOW(GPS_S2, 4s), GPS_S9.'ts' = GPS_S2.'ts')"
        )
    with pytest.raises(SemanticError, match="expected an attribute name"):
        parse_query("SUM(3, WINDOW(GPS_S1, 4))")


def test_aggregate_requires_window_child():
    with pytest.raises(SemanticError):
        parse_query("SUM('speed', FILTER(WINDOW(GPS_S1, 4s), 'latitude'<50))")


def test_degenerate_heatmap_bounds_rejected():
    with pytest.raises(SemanticError):
        parse_query("HEATMAP(0.01, 50, 49, 8, 9, WINDOW(GPS_S1, 1m))")
    with pytest.raises(SemanticError):
        parse_query("HEATMAP(0, 49, 50, 8, 9, WINDOW(GPS_S1, 1m))")


def test_predict_needs_plug_layout():
    with pytest.raises(SemanticError):
        parse_query("PREDICT(5m, WINDOW(GPS_S1, 1m))")


def nested_filters(depth):
    """A FILTER chain over one WINDOW: `depth` operators, root included."""
    return "FILTER(" * (depth - 1) + "WINDOW(GPS_S1, 4s)" + ", 'speed' > 1)" * (depth - 1)


def test_nesting_up_to_the_limit_parses():
    tree = create_operator_graph(nested_filters(MAX_NESTING))
    assert len(list(tree.walk())) == MAX_NESTING


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3001])
def test_nesting_past_the_limit_is_parse_error(depth):
    with pytest.raises(ParseError, match="nest deeper than %d" % MAX_NESTING):
        create_operator_graph(nested_filters(depth))


def test_empty_query_is_parse_error():
    with pytest.raises(ParseError):
        parse_query("")
    with pytest.raises(ParseError):
        parse_query("   ")


# ---------------------------------------------------------------------------
# canonical rendering and hashing


def test_whitespace_variants_share_canonical_form():
    assert canonical_text(parse_query("WINDOW(GPS_S1, 4s)")) == canonical_text(
        parse_query("WINDOW(GPS_S1,4s)")
    )
    assert query_hash(canonical_text(parse_query(Q3))) == query_hash(
        canonical_text(parse_query(Q3.replace(" ", "")))
    )


def test_canonical_is_whitespace_free_and_stable():
    canon = canonical_text(parse_query(Q3))
    assert " " not in canon
    assert canonical_text(parse_query(canon)) == canon


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_reference_queries_print_parse_fixpoint(q):
    tree = parse_query(q)
    assert parse_query(canonical_text(tree)) == tree


def test_query_hash_salt_separates():
    assert query_hash("WINDOW(GPS_S1,4s)", "b1") != query_hash("WINDOW(GPS_S1,4s)", "b2")


# ---------------------------------------------------------------------------
# lambda expression translation


def test_window_lambda_matches_arity_rule():
    tree = parse_query(Q1)
    assert to_nfn_expression(tree) == "(call 3 /node/nodeQuery/nfn_service_Window GPS_S1 4s)"


def test_join_lambda_spine():
    text = to_nfn_expression(parse_query(Q3))
    spine = re.findall(r"nfn_service_(\w+)", text)
    assert spine == ["Join", "Filter", "Window", "Filter", "Window"]
    assert text.startswith("(call 4 /node/nodeQuery/nfn_service_Join (call 3 ")
    assert text.count("(call") == 5 and text.count(")") >= 5


def test_assigned_node_replaces_placeholder():
    tree = create_operator_graph(Q1)
    assert to_nfn_expression(tree, {0: "nodeA"}) == (
        "(call 3 /node/nodeA/nfn_service_Window GPS_S1 4s)"
    )
    # hosts are looked up per operator index; unassigned ones keep the placeholder
    text = to_nfn_expression(create_operator_graph(Q3), {0: "b3", 2: "b1"})
    assert re.findall(r"/node/(\w+)/nfn_service_(\w+)", text) == [
        ("b3", "Join"), ("nodeQuery", "Filter"), ("b1", "Window"),
        ("nodeQuery", "Filter"), ("nodeQuery", "Window"),
    ]


@pytest.mark.parametrize(
    "query, service",
    [
        ("WINDOW(GPS_S1, 4s)", "Window"),
        ("FILTER(WINDOW(GPS_S1, 4s), 'speed'>1)", "Filter"),
        ("JOIN(WINDOW(GPS_S1, 4s), WINDOW(GPS_S2, 4s), GPS_S1.'ts' = GPS_S2.'ts')", "Join"),
        ("SEQUENCE(WINDOW(GPS_S1, 4s) -> WINDOW(GPS_S2, 4s))", "Sequence"),
        ("SUM('speed', WINDOW(GPS_S1, 4s))", "Sum"),
        ("MIN('speed', WINDOW(GPS_S1, 4s))", "Min"),
        ("MAX('speed', WINDOW(GPS_S1, 4s))", "Max"),
        ("AVG('speed', WINDOW(GPS_S1, 4s))", "Avg"),
        ("COUNT('speed', WINDOW(GPS_S1, 4s))", "Count"),
        ("HEATMAP(0.01, 49.86, 49.92, 8.61, 8.69, WINDOW(GPS_S1, 4s))", "Heatmap"),
        ("PREDICT(5m, WINDOW(PLUG_S1, 1m))", "Predict"),
    ],
)
def test_every_kind_calls_its_nfn_service(query, service):
    text = to_nfn_expression(parse_query(query))
    assert re.findall(r"nfn_service_(\w+)", text)[0] == service


def test_every_graph_node_renders_its_lambda():
    tree = create_operator_graph(Q3)
    whole = to_nfn_expression(tree)
    for node in tree.walk():
        text = to_nfn_expression(node)
        assert text.startswith("(call ") and text in whole


def test_preorder_indices_match_textual_keyword_order():
    for q in ALL_QUERIES:
        tree = create_operator_graph(q)
        walked = [n.kind for n in tree.walk()]
        indices = [n.index for n in tree.walk()]
        assert indices == list(range(len(walked)))
        textual = [
            w.upper()
            for w in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", q)
            if w.upper() in OPERATORS
        ]
        assert walked == textual


# ---------------------------------------------------------------------------
# generated trees: fixpoint property


_extents = st.sampled_from([Duration(4, "s"), Duration(1, "m"), 10])
_aliases = st.sampled_from(["GPS_S1", "GPS_S2"])


@st.composite
def _gps_tree_text(draw, depth=0):
    """Random valid query text over the GPS streams."""
    choices = ["window"]
    if depth < 4:
        choices += ["filter", "filter", "join"]
    pick = draw(st.sampled_from(choices))
    if pick == "window":
        alias = draw(_aliases)
        ext = draw(_extents)
        return "WINDOW(%s,%s)" % (alias, ext if isinstance(ext, Duration) else ext)
    if pick == "filter":
        child = draw(_gps_tree_text(depth + 1))
        bound = draw(st.integers(min_value=-90, max_value=90))
        op = draw(st.sampled_from(["<", ">", "=", "<=", ">="]))
        return "FILTER(%s,'latitude'%s%d)" % (child, op, bound)
    left = draw(_gps_tree_text(depth + 1))
    right = draw(_gps_tree_text(depth + 1))
    return "JOIN(%s,%s,'ts'='ts')" % (left, right)


@settings(max_examples=150, deadline=None)
@given(text=_gps_tree_text())
def test_generated_trees_fixpoint(text):
    tree = parse_query(text)
    canon = canonical_text(tree)
    assert parse_query(canon) == tree
    assert canonical_text(parse_query(canon)) == canon


def test_mutated_queries_never_crash():
    rng = random.Random(99)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789()<>=&|',.->\"' "
    count_parsed = 0
    for _ in range(300):
        base = list(rng.choice(ALL_QUERIES))
        for _ in range(rng.randint(1, 6)):
            kind = rng.randint(0, 2)
            pos = rng.randrange(len(base)) if base else 0
            if kind == 0 and base:
                base[pos] = rng.choice(alphabet)
            elif kind == 1:
                base.insert(pos, rng.choice(alphabet))
            elif base:
                del base[pos]
        mutated = "".join(base)
        try:
            parse_query(mutated)
            count_parsed += 1
        except QueryError:
            pass
    # a few mutations should still parse, the rest error out cleanly
    assert count_parsed >= 0
