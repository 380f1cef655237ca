"""Quote-file parsing and serialization.

Text format: a header block of ``key value`` lines (spot, rate, dividend --
spot is required, the others default to 0), then one record per line:

    maturity,strike,kind[,price]

Blank lines and ``#`` comments are allowed anywhere.  A JSON document with
the identical schema is accepted interchangeably:

    {"spot": 1.0, "rate": 0.0, "dividend": 0.0,
     "quotes": [{"maturity": 0.5, "strike": 1.1, "kind": "call",
                 "price": 0.021}, ...]}

Quotes are kept grouped by maturity (sorted by maturity, then strike, then
kind); serialization preserves full float precision so a written file reads
back value-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from .heston import MarketContext
from .swift import OptionQuote

_HEADER_KEYS = ("spot", "rate", "dividend")


class QuoteParseError(ValueError):
    """Malformed quote input; carries a line number for text sources."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class QuoteFile:
    """A market context plus its quotes, grouped by maturity."""

    context: MarketContext
    quotes: List[OptionQuote]

    def __post_init__(self):
        self.quotes = sorted(self.quotes,
                             key=lambda q: (q.maturity, q.strike, q.kind))
        seen = set()
        for q in self.quotes:
            key = (q.strike, q.maturity, q.kind)
            if key in seen:
                raise QuoteParseError(
                    f"duplicate quote (strike={q.strike}, maturity={q.maturity}, "
                    f"kind={q.kind})")
            seen.add(key)


def parse_quote_text(text: str) -> QuoteFile:
    header = {}
    quotes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        if len(parts) == 2 and key in _HEADER_KEYS:
            if quotes:
                raise QuoteParseError("header line after quote records", lineno)
            if key in header:
                raise QuoteParseError(f"repeated header key {parts[0]!r}", lineno)
            try:
                header[key] = float(parts[1])
            except ValueError:
                raise QuoteParseError(f"bad {parts[0]} value {parts[1]!r}", lineno)
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (3, 4):
            raise QuoteParseError(
                "expected 'maturity,strike,kind[,price]'", lineno)
        try:
            maturity = float(fields[0])
            strike = float(fields[1])
        except ValueError:
            raise QuoteParseError(f"bad numeric field in {line!r}", lineno)
        price = None
        if len(fields) == 4 and fields[3]:
            try:
                price = float(fields[3])
            except ValueError:
                raise QuoteParseError(f"bad price {fields[3]!r}", lineno)
        try:
            quotes.append(OptionQuote(strike=strike, maturity=maturity,
                                      price=price, kind=fields[2].lower()))
        except ValueError as exc:
            raise QuoteParseError(str(exc), lineno)
    if "spot" not in header:
        raise QuoteParseError("missing 'spot' header line")
    try:
        ctx = MarketContext(spot=header["spot"], rate=header.get("rate", 0.0),
                            dividend=header.get("dividend", 0.0))
    except ValueError as exc:
        raise QuoteParseError(str(exc))
    return QuoteFile(context=ctx, quotes=quotes)


def parse_quote_json(obj) -> QuoteFile:
    if not isinstance(obj, dict):
        raise QuoteParseError("quote JSON must be an object")
    if "spot" not in obj:
        raise QuoteParseError("missing 'spot' field")
    try:
        ctx = MarketContext(spot=as_float(obj["spot"], "spot"),
                            rate=as_float(obj.get("rate", 0.0), "rate"),
                            dividend=as_float(obj.get("dividend", 0.0), "dividend"))
        quotes = [OptionQuote(strike=as_float(q["strike"], "strike"),
                              maturity=as_float(q["maturity"], "maturity"),
                              price=(None if q.get("price") is None
                                     else as_float(q["price"], "price")),
                              kind=str(q.get("kind", "call")).lower())
                  for q in obj.get("quotes", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise QuoteParseError(f"bad quote JSON: {exc}")
    return QuoteFile(context=ctx, quotes=quotes)


def as_float(value, key: str) -> float:
    """float(value) of the field named key.  A boolean (JSON true/false) is
    refused, since float() would read it as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict, refusing a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise QuoteParseError(f"repeated JSON key {key!r}")
        obj[key] = value
    return obj


def loads_quotes(text: str) -> QuoteFile:
    """Parse either format; JSON is detected by a leading brace.  A key
    repeated in any JSON object is refused, as a repeated header line is."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise QuoteParseError(f"bad JSON: {exc.msg}", exc.lineno)
        return parse_quote_json(obj)
    return parse_quote_text(text)


def load_quote_file(path: str) -> QuoteFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_quotes(fh.read())


def dumps_quotes(qf: QuoteFile) -> str:
    lines = [f"spot {qf.context.spot!r}",
             f"rate {qf.context.rate!r}",
             f"dividend {qf.context.dividend!r}"]
    for q in qf.quotes:
        rec = f"{q.maturity!r},{q.strike!r},{q.kind}"
        if q.price is not None:
            rec += f",{q.price!r}"
        lines.append(rec)
    return "\n".join(lines) + "\n"


def quotes_to_json(qf: QuoteFile) -> dict:
    return {
        "spot": qf.context.spot,
        "rate": qf.context.rate,
        "dividend": qf.context.dividend,
        "quotes": [{"maturity": q.maturity, "strike": q.strike,
                    "kind": q.kind, "price": q.price} for q in qf.quotes],
    }


def save_quote_file(qf: QuoteFile, path: str) -> None:
    """Write text format, or JSON when the path ends in .json."""
    if path.endswith(".json"):
        payload = json.dumps(quotes_to_json(qf), indent=2)
    else:
        payload = dumps_quotes(qf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
