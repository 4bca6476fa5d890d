"""The byte mutations that the parsers' hostile-input tests draw."""

from hypothesis import strategies as st

# Bytes a mutation of a CSV file inserts or writes over: csv syntax, NUL, a
# byte that is never UTF-8, a byte order mark, and a run longer than
# csv.field_size_limit().
HOSTILE_CSV_BYTES = (b'"', b"\r", b"\n", b",", b"\0", b"\xff", b"\xef\xbb\xbf", b"x" * 131_073)


@st.composite
def mutated_bytes(draw, valid: bytes, hostile: tuple[bytes, ...]) -> bytes:
    """``valid`` after up to four insertions, deletions or replacements of
    bytes, the new bytes drawn from ``hostile``."""

    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind != "insert":
            del data[at : at + draw(st.integers(1, 3))]
        if kind != "delete":
            data[at:at] = draw(st.sampled_from(hostile))
    return bytes(data)
