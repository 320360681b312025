"""Dense test matrices as the sparse rows that `exact.null_space` and
`exact.rank` take."""


def rows_of(rows):
    """Each dense row as a {column: entry} dict, its zeros included."""
    return [dict(enumerate(row)) for row in rows]
