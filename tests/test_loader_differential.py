"""The four loaders against the per-row reference loaders, and fuzzed over
raw bytes.

The byte reader reads blocks of _BLOCK_BYTES bytes, and the per-row checker
yields blocks of _BLOCK_ROWS rows; the hypothesis tests also run with blocks
of a few rows and a few dozen bytes, so that drawn files cross many block
boundaries, and with the real blocks after a prefix of valid rows that ends
near the first row-block boundary.
"""

import re
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crowdfdb import (
    FileFormatError, TaskPool, WorkerProfile, datagen, load_gold_tallies, load_responses, load_tasks, load_workers,
)

from oracles import reference_load_gold_tallies, reference_load_responses, reference_load_tasks, reference_load_workers

BLOCK = datagen._BLOCK_ROWS
BLOCK_BYTES = datagen._BLOCK_BYTES

RESPONSE_HEADER = "worker_id,task_id,answer,z,y"
WORKER_HEADER = "id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11"
TALLY_HEADER = "id,att_z0_y0,cor_z0_y0,att_z0_y1,cor_z0_y1,att_z1_y0,cor_z1_y0,att_z1_y1,cor_z1_y1"
TASK_HEADER = "id,z,y"

# a valid data row of each loader; {i} makes its id unique
VALID_ROWS = {
    load_responses: (RESPONSE_HEADER, "w{i},t{i},1,0,1"),
    load_workers: (WORKER_HEADER, "w{i},1.0,0.9,0.1,0.2,0.8,0.7,0.3,0.4,0.6"),
    load_gold_tallies: (TALLY_HEADER, "w{i},5,5,5,3,5,0,5,4"),
    load_tasks: (TASK_HEADER, "t{i},0,1"),
}

OVERSIZED = "x" * 131_073  # one past the csv module's default field limit
UNDECODABLE = ["\udcff", "\udcc3(", "\udced\udca0\udc80"]  # written back as the bytes they escape
CANONICAL_BITS = ["0", "1"]
LOOSE_BITS = [" 1", "+1", "01", "1 ", "١", "0_0"]  # int() accepts these
BAD_BITS = ["2", "-1", "x", "", "1.0", "10", "11", "١١"]


def quoted(field):
    return '"' + field.replace('"', '""') + '"'


def render(fields, quote):
    return ",".join(quoted(f) if quote else f for f in fields)


@st.composite
def field_row(draw, fields):
    """A row from per-field strategies, sometimes a field short or long,
    quoted, or holding an oversized or undecodable field."""
    values = [draw(f) for f in fields]
    change = draw(st.sampled_from(["none"] * 6 + ["short", "long", "oversized", "undecodable"]))
    if change == "short":
        values.pop(draw(st.integers(0, len(values) - 1)))
    elif change == "long":
        values.append(draw(st.sampled_from(["", "1", "x"])))
    elif change in ("oversized", "undecodable"):
        where = draw(st.integers(0, len(values) - 1))
        values[where] += OVERSIZED if change == "oversized" else draw(st.sampled_from(UNDECODABLE))
    return render(values, draw(st.booleans()))


def bit():
    return st.sampled_from(CANONICAL_BITS * 4 + LOOSE_BITS + BAD_BITS)


def response_row():
    worker = st.sampled_from(["w0", "w1", "w2", "w,3", 'w"4', "w\n5", "é"])
    return field_row([worker, st.sampled_from(["t0", "t1", ""]), bit(), bit(), bit()])


def task_row():
    return field_row([st.sampled_from(["t0", "t1", "", "t,2", 't"3', "é"]), bit(), bit()])


def worker_row():
    """A worker row that is valid but for at most one drawn fault."""
    identity = st.sampled_from([f"w{i}" for i in range(12)])
    cost = st.sampled_from(["1.0", "3", "0", "-0.0", " 2.5", "1e0"])
    pair = st.sampled_from([("0.9", "0.1"), ("1", "0"), ("0.75", "0.25"), ("0.3", "0.7000000000000001"),
                            ("0.9", "0.1000000000001")])  # the last sums to 1 within 1e-12
    bad_cost = st.sampled_from(["-1", "-1e-300", "inf", "nan", "x", ""])
    bad_pair = st.sampled_from([("0.9", "0.2"), ("nan", "0"), ("-0.5", "1.5"), ("1.5", "-0.5"), ("x", "1"),
                                ("0.9", "0.100000000002")])

    @st.composite
    def values(draw):
        fault = draw(st.sampled_from(["none"] * 4 + ["cost", "pair"]))
        pairs = [draw(pair) for _ in range(4)]
        if fault == "pair":
            pairs[draw(st.integers(0, 3))] = draw(bad_pair)
        row = [draw(identity), draw(bad_cost if fault == "cost" else cost)]
        return [st.just(v) for v in row + [v for p in pairs for v in p]]

    return values().flatmap(field_row)


def tally_row():
    """A tally row that is valid but for at most one drawn fault: a count that
    is not an integer, negative, above its attempted count or beyond int64."""
    identity = st.sampled_from([f"w{i}" for i in range(6)] + ["", "w,7", "é"])
    count = st.sampled_from(["0", "3", "5", "9", " 4", "+2", str(2**63 - 1)])
    bad_count = st.sampled_from(["-1", "x", "", "2.0", "10", str(2**63), str(-2**63 - 1)])

    @st.composite
    def values(draw):
        counts = []
        for _ in range(4):
            counts.extend(sorted([draw(count), draw(count)], key=int, reverse=True))  # attempted, correct
        if draw(st.integers(0, 3)) == 0:
            counts[draw(st.integers(0, 7))] = draw(bad_count)
        return [st.just(v) for v in [draw(identity)] + counts]

    return values().flatmap(field_row)


def file_text(header, rows, crlf):
    newline = "\r\n" if crlf else "\n"
    return header + newline + newline.join(rows) + (newline if rows else "")


def write(path, text):
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def outcome(loader, path):
    """What a loader returns (a task pool as its ids and bits, a population as
    its workers, each as the bits of its numbers, so that -0.0 and 0.0
    differ), or the message of the FileFormatError it raises."""
    try:
        result = loader(path)
    except FileFormatError as err:
        return ("error", str(err))
    if isinstance(result, TaskPool):
        return result.ids, result.z.tolist(), result.y.tolist()
    return [(w.id, w.cost.hex(), w.correct.tobytes()) if isinstance(w, WorkerProfile) else w for w in result]


@st.composite
def block_and_prefix(draw, valid_row):
    """Block sizes in rows and in bytes, and valid rows to put first: with the
    real row block, enough that the drawn rows begin a few rows before or
    after its first boundary."""
    block = draw(st.sampled_from([1, 2, 3, BLOCK]))
    block_bytes = draw(st.sampled_from([1, 7, 24, 40, BLOCK_BYTES]))
    count = draw(st.integers(BLOCK - 3, BLOCK + 1)) if block == BLOCK else draw(st.integers(0, 3))
    return block, block_bytes, [valid_row.format(i=f"p{i}") for i in range(count)]


def blocks_of(block, block_bytes):
    """Both block sizes patched for the duration of a with block."""
    return mock.patch.multiple(datagen, _BLOCK_ROWS=block, _BLOCK_BYTES=block_bytes)


DIFFERENTIAL = {
    "responses": (load_responses, reference_load_responses, response_row),
    "tallies": (load_gold_tallies, reference_load_gold_tallies, tally_row),
    "tasks": (load_tasks, reference_load_tasks, task_row),
    "workers": (load_workers, reference_load_workers, worker_row),
}


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_block_loader_matches_the_per_row_reference(tmp_path, kind, data):
    loader, reference, row = DIFFERENTIAL[kind]
    header, valid = VALID_ROWS[loader]
    block, block_bytes, prefix = data.draw(block_and_prefix(valid))
    rows = prefix + data.draw(st.lists(row(), max_size=8))
    if data.draw(st.integers(0, 9)) == 0:
        header = data.draw(st.sampled_from(["", header + ",extra", header.upper(), header + "\udcff"]))
    text = data.draw(st.sampled_from([file_text(header, rows, crlf=False), file_text(header, rows, crlf=True), ""]))
    path = write(tmp_path / f"{kind}.csv", text)
    with blocks_of(block, block_bytes):
        got = outcome(loader, path)
        want = outcome(reference, path)
    assert got == want


LINE = re.compile(r" line [0-9]+: ")


@pytest.mark.parametrize("loader", list(VALID_ROWS), ids=lambda f: f.__name__)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_bytes_raise_a_format_error_naming_the_line(tmp_path, loader, data):
    header, valid = VALID_ROWS[loader]
    block, block_bytes, prefix = data.draw(block_and_prefix(valid))
    pieces = st.one_of(
        st.binary(max_size=12),
        st.sampled_from([valid.format(i="q").encode(), b'"', b",", b"\r", b"\n", b"\xff", b"\xc3", b"\x00"]),
    )
    tail = b"".join(data.draw(st.lists(pieces, max_size=10)))
    with_header = data.draw(st.booleans())
    body = "".join(row + "\n" for row in prefix).encode()
    path = tmp_path / "fuzz.csv"
    path.write_bytes((header.encode() + b"\n" if with_header else b"") + body + tail)
    with blocks_of(block, block_bytes):
        try:
            loader(path)
        except FileFormatError as err:
            assert str(err).startswith(str(path))
            assert LINE.search(str(err)), str(err)


@pytest.mark.parametrize("loader", list(VALID_ROWS), ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad_line", [BLOCK, BLOCK + 1, BLOCK + 2, BLOCK + 3])
@pytest.mark.parametrize("fault", ["width", "undecodable", "oversized"])
def test_faults_around_the_first_block_boundary_name_their_line(tmp_path, loader, bad_line, fault):
    # data rows start on line 2, so the first block ends on line BLOCK + 1
    header, valid = VALID_ROWS[loader]
    rows = [valid.format(i=i) for i in range(BLOCK + 8)]
    index = bad_line - 2
    rows[index] = {"width": rows[index] + ",extra", "undecodable": "\udcff" + rows[index],
                   "oversized": OVERSIZED + rows[index]}[fault]
    path = write(tmp_path / "boundary.csv", file_text(header, rows, crlf=False))
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))} line {bad_line}: "):
        loader(path)


@pytest.mark.parametrize("fault", [
    "w9,-1,0.9,0.1,0.2,0.8,0.7,0.3,0.4,0.6",
    "w9,inf,0.9,0.1,0.2,0.8,0.7,0.3,0.4,0.6",
    "w9,nan,0.9,0.1,0.2,0.8,0.7,0.3,0.4,0.6",
    "w9,1.0,inf,0.1,0.2,0.8,0.7,0.3,0.4,0.6",
    "w9,1.0,0.9,0.1,0.2,0.8,0.7,0.3,1.5,-0.5",
    "w9,1.0,0.9,0.1,0.2,0.8,1.0000000000005,0,0.4,0.6",  # sums to 1 within 1e-12, but above 1
    "w9,1.0,0.9,0.1,0.2,0.8,0.7,0.3,0.4,0.600000000002",
    "w9,1.0,0.9,0.1,0.2,0.8,0.7,0.3,0.4,x",
    "w3,1.0,0.9,0.1,0.2,0.8,0.7,0.3,0.4,0.6",
])
def test_each_worker_fault_is_reported_as_the_reference_reports_it(tmp_path, fault):
    header, valid = VALID_ROWS[load_workers]
    rows = [valid.format(i=i) for i in range(8)]
    rows[5] = fault
    path = write(tmp_path / "workers.csv", file_text(header, rows, crlf=False))
    got = outcome(load_workers, path)
    assert got == outcome(reference_load_workers, path)
    assert got[0] == "error" and f"{path} line 7: " in got[1]


@pytest.mark.parametrize("fault", [
    "w9,5,6,5,5,5,5,5,5",
    "w9,5,5,5,5,-1,0,5,5",
    "w9,5,5,5,5,5,5,5,x",
    f"w9,5,5,{2**63},5,5,5,5,5",
    f"w9,5,5,5,5,5,5,{-2**63 - 1},0",
    "w3,5,5,5,5,5,5,5,5",
    "w3,5,5,5,5,5,5,4,5",  # a repeated id and a count above its attempted count
    f"w3,5,5,5,5,5,5,5,{2**63}",
])
def test_each_tally_fault_is_reported_as_the_reference_reports_it(tmp_path, fault):
    header, valid = VALID_ROWS[load_gold_tallies]
    rows = [valid.format(i=i) for i in range(8)]
    rows[5] = fault
    path = write(tmp_path / "tallies.csv", file_text(header, rows, crlf=False))
    got = outcome(load_gold_tallies, path)
    assert got == outcome(reference_load_gold_tallies, path)
    assert got[0] == "error" and f"{path} line 7: " in got[1]


BYTE_READ = {
    load_responses: reference_load_responses,
    load_tasks: reference_load_tasks,
    load_workers: reference_load_workers,
    load_gold_tallies: reference_load_gold_tallies,
}
UNIQUE_IDS = (load_workers, load_gold_tallies)

# text the byte reader takes: no comma, quote, carriage return, newline, NUL or lone surrogate
PLAIN_TEXT = st.text(st.characters(exclude_characters=',"\r\n\x00', exclude_categories=("Cs",)), max_size=4)
# valid values in the forms int() or float() accept, as the checker reads them
PLAIN_COST = st.sampled_from(["1.0", "3", "0", "-0.0", "-0", " 2.5", "1e0", "1_0", "+1", "7"])
PLAIN_PAIR = st.sampled_from([("0.9", "0.1"), ("1", "0"), ("0", "1"), ("0.75", "0.25"), ("0.3", "0.7000000000000001"),
                              (" 0.5", "0.5 "), ("1e-3", "0.999")])
PLAIN_COUNTS = st.sampled_from([("0", "0"), ("5", "3"), ("9", "9"), (" 4", "+2"), ("1_0", "7"), ("12", "-0"),
                                (str(2**63 - 1), str(2**63 - 1))])


@st.composite
def plain_values(draw, loader):
    """The typed fields of one valid row of a loader, as the byte reader takes them."""
    if loader is load_workers:
        return [draw(PLAIN_COST)] + [v for _ in range(4) for v in draw(PLAIN_PAIR)]
    if loader is load_gold_tallies:
        return [v for _ in range(4) for v in draw(PLAIN_COUNTS)]
    bits = 3 if loader is load_responses else 2
    return ([draw(PLAIN_TEXT)] if loader is load_responses else []) + \
        draw(st.lists(st.sampled_from(CANONICAL_BITS), min_size=bits, max_size=bits))


@pytest.mark.parametrize("loader", list(BYTE_READ), ids=lambda f: f.__name__)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_plain_files_are_read_without_the_csv_parser(tmp_path, loader, data):
    """LF line endings and unquoted fields, with ids in runs of any length,
    repeated later or not where they may repeat: the byte reader alone
    matches the reference, whatever the block size."""
    header, _ = VALID_ROWS[loader]
    ids = st.sampled_from(["w0", "w1", "", "é"]) | PLAIN_TEXT
    if loader in UNIQUE_IDS:
        runs = [(first, 1) for first in data.draw(st.lists(ids, unique=True, max_size=12))]
    else:
        runs = data.draw(st.lists(st.tuples(ids, st.integers(1, 5)), max_size=12))
    rows = [[first] + data.draw(plain_values(loader)) for first, count in runs for _ in range(count)]
    text = file_text(header, [",".join(row) for row in rows], crlf=False)
    if rows and data.draw(st.booleans()):
        text = text[:-1]  # no newline after the last row
    path = write(tmp_path / "plain.csv", text)
    want = outcome(BYTE_READ[loader], path)
    with blocks_of(BLOCK, data.draw(st.sampled_from([1, 7, 24, 40, BLOCK_BYTES]))), \
            mock.patch.object(datagen, "_data_rows", side_effect=AssertionError("csv parser used")):
        assert outcome(loader, path) == want
    if loader in UNIQUE_IDS and rows:
        assert want[0] != "error"


# each replaces the first or the last typed field of one row: what int() or float() accepts or rejects
VALUES = {"1_0": "1_0", "space 0.5": " 0.5", "+1": "+1", "1e-3": "1e-3", "inf": "inf", "nan": "nan", "-0": "-0",
          "2**63": str(2**63), "6": "6"}  # 6 is above its attempted count as the last field of a tally row


def explicit_case(loader, case):
    """The bytes of one named case for a file of any loader."""
    header, valid = VALID_ROWS[loader]
    rows = [valid.format(i=i) for i in range(6)]
    if case == "no trailing newline":
        return file_text(header, rows, crlf=False)[:-1]
    if case == "crlf":
        return file_text(header, rows, crlf=True)
    if case == "cr line endings":  # the csv parser ends a row at a lone carriage return too
        return "\r".join([header] + rows) + "\r"
    if case.split()[0] in VALUES:  # "<value> first" or "<value> last"
        fields = rows[2].split(",")
        n_text = 2 if loader is load_responses else 1
        fields[n_text if case.endswith("first") else -1] = VALUES[case.split()[0]]
        rows[2] = ",".join(fields)
    elif case == "quoted ids":
        rows[2] = quoted(rows[2].split(",")[0]) + rows[2][rows[2].index(","):]
    elif case == "nul byte":
        rows[3] = "w\x00" + rows[3]
    elif case == "carriage return in an id":
        rows[3] = "w\r" + rows[3]
    elif case in ("bit 2", "bit /"):
        rows[2] = rows[2][:-1] + case[-1]
    elif case == "comma for a last bit, then a row a comma short":
        rows[2] = rows[2][:-1] + ","
        rows[3] = rows[3].replace(",", "", 1)
    elif case == "bad utf-8 in a later block":
        count = 2 * BLOCK_BYTES // len(valid)
        rows = [valid.format(i=i if loader in UNIQUE_IDS else i % 7) for i in range(count)]
        rows.append("\udcff" + valid.format(i=0))
    elif case == "id repeated across a block boundary":
        rows = [valid.format(i=i) for i in range(2 * BLOCK_BYTES // len(valid))]
        ends = accumulate(len(row) + 1 for row in rows)  # past each row's newline, counted after the header's
        first = next(i for i, end in enumerate(ends) if end > BLOCK_BYTES)  # the last row of the first block
        rows[first + 1] = valid.format(i=first)  # the first row of the second block repeats the last of the first
    elif case == "a row a field long, then one a field short":
        # the commas add up, a tally row read without its own first field holds valid counts, and the
        # short row ends the file, so the long row's last comma would be read as the short row's first
        width = len(header.split(","))
        rows[-2] = rows[-2].replace(",", ",5,", 1)
        rows[-1] = ",".join((["7"] + ["3", "5"] * width)[:width - 1])
    elif case == "header only":
        rows = []
    elif case == "oversized field":
        rows[4] = OVERSIZED + rows[4]
    elif case == "field at the limit":  # on a line longer than the limit
        rows[4] = "x" * (len(OVERSIZED) - 1) + rows[4][rows[4].index(","):]
    elif case == "loose bit":
        rows[1] = rows[1][:-1] + " 1"
    elif case == "non-contiguous ids":
        rows = [valid.format(i=i) for i in (0, 1, 0, 2, 2, 1, 0, 3)]
    return file_text(header, rows, crlf=False)


EXPLICIT = [
    "no trailing newline", "crlf", "cr line endings", "quoted ids", "nul byte", "carriage return in an id", "bit 2",
    "bit /", "comma for a last bit, then a row a comma short", "bad utf-8 in a later block", "header only",
    "oversized field", "field at the limit", "loose bit", "non-contiguous ids", "id repeated across a block boundary",
    "a row a field long, then one a field short",
] + [f"{value} {where}" for value in VALUES for where in ("first", "last")]


@pytest.mark.parametrize("loader", list(BYTE_READ), ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", EXPLICIT)
@pytest.mark.parametrize("block_bytes", [7, BLOCK_BYTES])
def test_explicit_cases_match_the_reference(tmp_path, loader, case, block_bytes):
    """A block of 7 bytes splits nearly every row across a block boundary."""
    path = write(tmp_path / "case.csv", explicit_case(loader, case))
    with blocks_of(BLOCK, block_bytes):
        assert outcome(loader, path) == outcome(BYTE_READ[loader], path)
