"""EXPERIMENTS.md quotes the committed benchmark outputs: every decimal
number in one of its table rows must appear, at the quoted precision,
in ``benchmarks/out/`` as rendered by the bench the row (or its
section heading) names."""

import re
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = re.compile(r"`(test_\w+\.py)`")
DECIMAL = re.compile(r"(?<![\w.])\d+\.\d+")


def table_rows():
    """``(bench file, row)`` for every table row of EXPERIMENTS.md that
    quotes a decimal number."""
    section_bench = None
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        if line.startswith("#"):
            found = BENCH.search(line)
            section_bench = found.group(1) if found else None
        elif line.startswith("|") and DECIMAL.search(line):
            found = BENCH.search(line)
            yield (found.group(1) if found else section_bench), line


def rendered_numbers(bench):
    """The decimal numbers in every output file the bench writes."""
    source = (ROOT / "benchmarks" / bench).read_text()
    outputs = re.findall(r'"(\w+\.txt)"', source)
    assert outputs, f"{bench} writes no benchmarks/out file"
    return [Decimal(n) for name in outputs
            for n in DECIMAL.findall(
                (ROOT / "benchmarks" / "out" / name).read_text())]


def quoted(doc, numbers):
    """Some rendered number, at least as precise, rounds to ``doc``."""
    exponent = Decimal(doc).as_tuple().exponent
    return any(n.as_tuple().exponent <= exponent
               and n.quantize(Decimal(doc)) == Decimal(doc)
               for n in numbers)


ROWS = list(table_rows())


def test_the_document_has_table_rows():
    assert len(ROWS) > 20


@pytest.mark.parametrize("bench,row", ROWS,
                         ids=[f"{b}:{r[:40]}" for b, r in ROWS])
def test_every_table_number_is_in_the_bench_output(bench, row):
    assert bench is not None, f"row names no bench: {row}"
    numbers = rendered_numbers(bench)
    missing = [doc for doc in DECIMAL.findall(row)
               if not quoted(doc, numbers)]
    assert not missing, f"{missing} not in the output of {bench}: {row}"
