"""Quote-file parsing/serialization, report round-trips and fixtures."""

import json

import pytest

from swiftcal import ExperimentReport, MarketContext, OptionQuote, QuoteParseError
from swiftcal.fixtures import (
    PARAM_SETS,
    SET1_MATURITY,
    SET2_MATURITIES,
    SET2_STRIKES,
    fixture_checksum,
    set1_quotes,
    set2_quotes,
)
from swiftcal.quotes import (
    QuoteFile,
    dumps_quotes,
    loads_quotes,
    parse_quote_json,
    parse_quote_text,
    quotes_to_json,
)

SAMPLE = """# demo quotes
spot 100.0
rate 0.01
dividend 0.0
0.5,90,call,12.34
0.5,110,put
1.5,100,call,8.5
"""


def test_text_parse_basics():
    qf = parse_quote_text(SAMPLE)
    assert qf.context.spot == 100.0
    assert qf.context.rate == 0.01
    assert len(qf.quotes) == 3
    # grouped by maturity, then strike
    assert [q.maturity for q in qf.quotes] == [0.5, 0.5, 1.5]
    assert qf.quotes[1].kind == "put"
    assert qf.quotes[1].price is None


def test_text_round_trip_value_identical():
    qf = parse_quote_text(SAMPLE)
    again = loads_quotes(dumps_quotes(qf))
    assert again.context == qf.context
    assert again.quotes == qf.quotes


def test_json_round_trip_and_interchangeability():
    qf = parse_quote_text(SAMPLE)
    as_json = json.dumps(quotes_to_json(qf))
    again = loads_quotes(as_json)
    assert again.context == qf.context
    assert again.quotes == qf.quotes


def test_full_precision_floats_survive():
    qf = QuoteFile(context=MarketContext(spot=1.0),
                   quotes=[OptionQuote(0.9371, 0.119047619047619,
                                       price=0.06486363376604524)])
    again = loads_quotes(dumps_quotes(qf))
    assert again.quotes[0].maturity == 0.119047619047619
    assert again.quotes[0].price == 0.06486363376604524


def test_parse_errors_carry_line_numbers():
    bad = "spot 1.0\n0.5,1.0,call\nnot,a,quote,line,at,all\n"
    with pytest.raises(QuoteParseError) as err:
        parse_quote_text(bad)
    assert err.value.line == 3
    with pytest.raises(QuoteParseError) as err:
        parse_quote_text("spot 1.0\n0.5,1.0,swap\n")
    assert err.value.line == 2
    with pytest.raises(QuoteParseError):
        parse_quote_text("rate 0.0\n0.5,1.0,call\n")  # spot missing
    with pytest.raises(QuoteParseError):
        parse_quote_text("spot 1.0\n0.5,1.0,call\nspot 2.0\n")  # late header
    for text, line in (("spot one\n", 1),                        # header value
                       ("spot 1.0\n0.5,1.0,call,cheap\n", 2),    # price
                       ("spot 1.0\n\n0.5,-1.0,call\n", 3),       # strike domain
                       ("spot -1.0\n", None),                    # spot domain
                       ('{"quotes": []}', None),                 # JSON spot missing
                       ('{"spot": 1.0, "quotes": [{"strike": 1.0}]}', None),
                       ('{"spot": 1.0,\n "quotes": [', 2)):      # JSON syntax
        with pytest.raises(QuoteParseError) as err:
            loads_quotes(text)
        assert err.value.line == line, text
    with pytest.raises(QuoteParseError, match="must be an object"):
        parse_quote_json([{"spot": 1.0}])


def test_json_kind_reads_like_text():
    # one schema for both formats: the kind is case-insensitive in either
    text = parse_quote_text("spot 1.0\n0.5,1.0,Call\n0.5,1.1,PUT\n")
    obj = loads_quotes('{"spot": 1.0, "quotes": [{"maturity": 0.5, "strike": 1.0, '
                       '"kind": "Call"}, {"maturity": 0.5, "strike": 1.1, '
                       '"kind": "PUT"}]}')
    assert obj.quotes == text.quotes
    assert [q.kind for q in obj.quotes] == ["call", "put"]


@pytest.mark.parametrize("kind", ["1", "null", "true", '["call"]', '{"call": 1}'])
def test_json_non_string_kind_is_a_parse_error(kind):
    # a parse error naming the kind, not an AttributeError of str methods
    with pytest.raises(QuoteParseError, match="kind"):
        loads_quotes('{"spot": 1.0, "quotes": [{"maturity": 0.5, "strike": 1.0, '
                     f'"kind": {kind}}}]}}')


@pytest.mark.parametrize("text,line", [
    ("spot 1\nspot 2\n0.5,1.0,call\n", 2),
    ("spot 1\nrate 0.01\n# comment\nRATE 0.02\n0.5,1.0,call\n", 4),
])
def test_repeated_header_key_rejected(text, line):
    # the second value would silently replace the first
    with pytest.raises(QuoteParseError, match="repeated header key") as err:
        parse_quote_text(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,key", [
    ('{"spot": 1.0, "spot": 2.0, "quotes": []}', "spot"),
    ('{"spot": 1.0, "quotes": [{"maturity": 0.5, "strike": 1.0, "strike": 1.1}]}',
     "strike"),
])
def test_repeated_json_key_rejected(text, key):
    # json.loads would keep the last value; the JSON twin of a repeated header
    with pytest.raises(QuoteParseError, match=f"repeated JSON key '{key}'"):
        loads_quotes(text)


@pytest.mark.parametrize("text", [
    '{"spot": true, "quotes": []}',
    '{"spot": 1.0, "rate": false, "quotes": []}',
    '{"spot": 1.0, "quotes": [{"maturity": 0.5, "strike": true}]}',
    '{"spot": 1.0, "quotes": [{"maturity": true, "strike": 1.0}]}',
    '{"spot": 1.0, "quotes": [{"maturity": 0.5, "strike": 1.0, "price": false}]}',
])
def test_json_boolean_number_rejected(text):
    # float() reads true as 1 and false as 0
    with pytest.raises(QuoteParseError, match="must be a number, got (true|false)"):
        loads_quotes(text)


def test_duplicate_quotes_rejected():
    with pytest.raises(QuoteParseError):
        parse_quote_text("spot 1.0\n0.5,1.0,call\n0.5,1.0,call\n")


def test_fixture_sets_shape():
    s1, s2 = set1_quotes(), set2_quotes()
    assert len(s1) == 40 and len(s2) == 40
    assert {q.maturity for q in s1} == {SET1_MATURITY}
    assert len({q.maturity for q in s2}) == 8
    strikes2 = sorted(q.strike for q in s2)
    assert strikes2 == sorted(k for row in SET2_STRIKES for k in row)
    assert sorted(q.strike for q in s1) == strikes2
    assert len(SET2_MATURITIES) == 8


def test_fixture_checksum_frozen():
    # any edit to the bundled parameter sets or strike/maturity tables must
    # be deliberate: it changes this digest
    assert fixture_checksum() == (
        "c4a43ff0fbc103d8416337bfed669fabb02f9993ab830637c1caa15e23049c91")


def test_param_sets_contents():
    t2 = PARAM_SETS["theta2"]
    assert (t2.kappa, t2.v_bar, t2.sigma, t2.rho, t2.v0) == (
        1.5768, 0.0398, 0.0175, -0.5711, 0.0175)
    start = PARAM_SETS["theta2-start"]
    assert start.sigma == 0.5751
    assert start == PARAM_SETS["stress"]
    fx = PARAM_SETS["fx"]
    assert (fx.kappa, fx.v_bar, fx.sigma, fx.rho, fx.v0) == (0.5, 0.04, 1.0, -0.9, 0.04)
    ir = PARAM_SETS["ir"]
    assert (ir.kappa, ir.v_bar, ir.sigma, ir.rho, ir.v0) == (0.3, 0.04, 0.9, -0.5, 0.04)
    eq = PARAM_SETS["eq"]
    assert (eq.kappa, eq.v_bar, eq.sigma, eq.rho, eq.v0) == (1.0, 0.09, 1.0, 0.04, 0.09)


def test_report_json_round_trip(tmp_path):
    rep = ExperimentReport(experiment="price",
                           rows=[{"strike": 1.0, "price": 0.123456789012345}],
                           metadata={"backend": "swift", "seed": 3,
                                     "wall_times": {"price_s": 0.01}})
    path = tmp_path / "report.json"
    rep.save(str(path))
    again = ExperimentReport.from_json(path.read_text())
    assert again.experiment == rep.experiment
    assert again.rows == rep.rows
    assert again.metadata == rep.metadata


def test_report_table_rendering():
    rep = ExperimentReport(experiment="price",
                           rows=[{"strike": 1.0, "price": 0.5}],
                           metadata={"backend": "cp"})
    text = rep.to_table()
    assert "strike" in text and "price" in text and "backend: cp" in text
    empty = ExperimentReport(experiment="price")
    assert "(no rows)" in empty.to_table()
    with pytest.raises(ValueError):
        ExperimentReport(experiment="nonsense")
    with pytest.raises(ValueError):  # generate writes a quote file, not a report
        ExperimentReport(experiment="generate")
