"""Pre-trained word embedding store: file I/O, cosine, top-K search.

Two on-disk formats are supported.  Text: an optional "<count> <dim>"
header line, then one "term c1 ... cD" line per word.  Binary: the
word2vec convention of an ASCII header followed by records of
space-terminated term bytes plus D little-endian float32 values, with
an optional newline between records.  Vectors are held as float64
internally; every float32 is exactly representable in float64, so
binary values load bit for bit.
"""

from typing import NamedTuple

import numpy as np

from ._kernels import cosine_scores
from .errors import FormatError, VenuerecError, numbered_lines


class SimilarTerm(NamedTuple):
    term: str
    score: float


class EmbeddingStore:
    """Immutable term -> vector map with a fixed dimension.

    Every value must be finite.  A row's squared norm may still
    overflow: its norm is then inf and its cosines 0 or NaN.
    """

    __slots__ = ("_terms", "_index", "_matrix", "_norms")

    def __init__(self, terms, matrix):
        terms = tuple(terms)
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(terms):
            raise ValueError("matrix shape does not match term count")
        if matrix.shape[1] < 1:
            raise ValueError("dimension must be positive")
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        # a NaN or an infinite value makes its row's norm NaN or inf, so
        # only a store with such a norm needs the whole-matrix check
        if not np.all(np.isfinite(norms)) and not np.all(np.isfinite(matrix)):
            raise ValueError("vectors must be finite")
        index = {}
        for i, term in enumerate(terms):
            if not term:
                raise ValueError("empty term")
            if term in index:
                raise ValueError("duplicate term %r" % term)
            index[term] = i
        self._terms = terms
        self._index = index
        matrix.setflags(write=False)
        self._matrix = matrix
        self._norms = norms

    @property
    def dimension(self):
        return self._matrix.shape[1]

    @property
    def terms(self):
        return self._terms

    def __len__(self):
        return len(self._terms)

    def __contains__(self, term):
        return term in self._index

    def vector_of(self, term):
        """Stored vector for `term`, or None when absent."""
        i = self._index.get(term)
        if i is None:
            return None
        return self._matrix[i]

    def sum_of(self, terms):
        """The sum of the stored vectors of `terms`, absent ones skipped,
        equal bit for bit to adding them one by one to a zero vector."""
        rows = self._matrix[[i for i in map(self._index.get, terms)
                             if i is not None]]
        if self.dimension > 1:
            # numpy adds rows along axis 0 in order; + 0.0 turns the
            # -0.0 of an all -0.0 column into the zero start's 0.0
            return rows.sum(axis=0) + 0.0
        # but a lone column it adds pairwise
        total = np.zeros(1)
        for row in rows:
            total += row
        return total


class NormOverflowError(VenuerecError, ValueError):
    """A row whose squared norm overflows a float; `row` counts the rows
    of A, then those of B."""

    def __init__(self, row):
        super().__init__("the squared norm of row %d overflows a float"
                         % row)
        self.row = row


def cosine_matrix(A, B):
    """The cosine of each row of `A` with each row of `B`; 0 for a zero row.

    Each dot and squared norm is a one-row matmul, done by the BLAS
    ``ddot`` of ``np.dot`` and ``np.linalg.norm``, so each cosine is the
    pairwise float bit for bit; ``einsum`` and ``A @ B.T`` add in
    another order.  A row whose squared norm overflows raises
    NormOverflowError; with every squared norm finite, no dot overflows.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("cosine_matrix requires rows of one length")
    squares = np.concatenate([_squared_norms(A), _squared_norms(B)])
    bad = np.flatnonzero(~np.isfinite(squares))
    if len(bad):
        raise NormOverflowError(int(bad[0]))
    dots = (A[:, None, None, :] @ B[None, :, :, None])[:, :, 0, 0]
    norms = np.sqrt(squares)
    na, nb = norms[:len(A)], norms[len(A):]
    out = np.zeros(dots.shape)
    np.divide(dots, np.outer(na, nb), out=out,
              where=np.outer(na != 0.0, nb != 0.0))
    return np.clip(out, -1.0, 1.0)


def _squared_norms(M):
    """Each row's squared norm by a one-row matmul, which equals the
    row's ``np.dot`` bit for bit; inf where it overflows."""
    with np.errstate(over="ignore"):
        return (M[:, None, :] @ M[:, :, None])[:, 0, 0]


def similar_k(store, query, k, exclude):
    """The k store terms most cosine-similar to `query`; `k` >= 1.

    Ordered by score descending, then term ascending; a NaN score, from
    a dot that overflows, ranks last.  A zero query has no direction, so
    the result is empty by definition.  A partition finds the score
    ``k + len(exclude)`` ranks down, and only the rows scoring at least
    that much are sorted: they hold the k best terms not excluded.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.shape[0] != store.dimension:
        raise ValueError("query length %r != store dimension %d"
                         % (query.shape, store.dimension))
    if not np.all(np.isfinite(query)):
        raise ValueError("query must be finite")
    with np.errstate(over="ignore"):
        squared = query @ query
    if squared == 0.0 or len(store) == 0:
        return []
    if squared == np.inf and np.isfinite(store._norms).all():
        # a power of two scales exactly and changes no cosine; a row whose
        # own squared norm overflows (never in a loaded store) keeps its NaN
        query = np.ldexp(query, -np.frexp(np.abs(query).max())[1])
    scores = cosine_scores(store._matrix, store._norms, query)
    exclude = set(exclude)
    # cosines are clipped to [-1, 1], so 2.0 puts a NaN after them all
    keys = np.nan_to_num(-scores, copy=False, nan=2.0)
    top = k + len(exclude)
    cut = np.partition(keys, top - 1)[top - 1] if top < len(keys) else 2.0
    rows = np.flatnonzero(keys <= cut)
    ranked = sorted(zip(keys[rows].tolist(),
                        map(store._terms.__getitem__, rows),
                        scores[rows].tolist()))
    return [SimilarTerm(term, score) for _, term, score in ranked
            if term not in exclude][:k]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_embeddings(path, format):
    """The EmbeddingStore of the `format` ("text" or "binary") file at
    `path`."""
    return _load_text(path) if format == "text" else _load_binary(path)


def _parse_vector(parts, dim, term, path, lineno):
    if len(parts) != dim:
        raise FormatError(
            "term %r has %d components, expected %d" % (term, len(parts), dim),
            path=path, line=lineno)
    try:
        vec = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise FormatError("unparseable number for term %r" % term,
                          path=path, line=lineno) from None
    if not np.all(np.isfinite(vec)):
        raise FormatError("non-finite component for term %r" % term,
                          path=path, line=lineno)
    return vec


def read_text_vectors(path):
    """Iterate ``(line, term, vector)`` over the terms of a text-format
    file, in file order.

    The vector caches, which hold sums, are read with this alone; only
    load_embeddings also limits the norm.
    """
    found = _read_well_formed(path)
    if found is None:
        return _read_lines(path)
    return zip(*found)


def _read_well_formed(path):
    """``(lines, terms, matrix)`` of a file as write_text_vectors writes
    it: each term's line number, the terms in file order and their
    vectors as rows, parsed by numpy; None for any other file.

    The file must be UTF-8: lines of a term free of whitespace and dim
    values, each after one single space, with no term twice and every
    value finite.  A first line that is a ``count dim`` header by
    _read_lines' rule (`_header`) declares both; any other first line
    is a term's, as in the headerless layout GloVe ships, and sets dim.
    Every other file, and every value ``np.loadtxt`` cannot parse but
    ``float()`` can (``1_0``, ``١٢``), goes to _read_lines, which
    gives the same values or names the line at fault.  Counting the
    spaces matters: ``loadtxt`` with ``usecols`` drops extra columns.
    The file is streamed twice, never held whole.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            declared = _header(first.split())
            if declared is None:
                # the first line is a term's, read again below
                count, dim = None, first.count(" ")
                fh.seek(0)
            else:
                count, dim = declared
            if (count is not None and count < 1) or dim < 1:
                return None
            terms = []
            for line in fh:
                term = line.partition(" ")[0]
                if line.count(" ") != dim or term.split() != [term]:
                    return None
                terms.append(term)
            if count is None:
                count = len(terms)
            if len(terms) != count or len(set(terms)) != count:
                return None
            fh.seek(0)
            first_term_line = 1 if declared is None else 2
            matrix = np.loadtxt(fh, dtype=np.float64, delimiter=" ",
                                usecols=range(1, dim + 1), comments=None,
                                skiprows=first_term_line - 1, ndmin=2)
    except ValueError:  # a byte that is not UTF-8, a value loadtxt rejects
        return None
    if matrix.shape != (count, dim) or not np.all(np.isfinite(matrix)):
        return None
    return range(first_term_line, first_term_line + count), terms, matrix


def _header(parts):
    """The ``(count, dim)`` a first line split into `parts` declares: two
    tokens that both parse as int.  None for any other line."""
    if len(parts) != 2:
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


def _read_lines(path):
    """Yield ``(line, term, vector)`` for each term of a text-format
    file, parsed line by line with ``float()``."""
    seen = set()
    declared = None
    dim = None
    for lineno, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1:
            declared = _header(parts)
            if declared is not None:
                if declared[0] < 1 or declared[1] < 1:
                    raise FormatError(
                        "header counts must be positive", path=path, line=1)
                dim = declared[1]
                continue
        term = parts[0]
        if dim is None:
            dim = len(parts) - 1
            if dim < 1:
                raise FormatError("cannot infer dimension", path=path,
                                  line=lineno)
        if term in seen:
            raise FormatError("duplicate term %r" % term, path=path,
                              line=lineno)
        seen.add(term)
        yield lineno, term, _parse_vector(parts[1:], dim, term, path, lineno)
    if not seen:
        raise FormatError("no vectors in file", path=path)
    if declared is not None and declared[0] != len(seen):
        raise FormatError("header declares %d terms, file holds %d"
                          % (declared[0], len(seen)), path=path)


def write_text_vectors(entries, path):
    """Write ``(key, vector)`` pairs in the order given: a ``count dim``
    header, then one ``key v1 ... vD`` line each.  The one writer of the
    format; repr gives read_text_vectors each value back bit for bit.  A
    key must be non-empty and free of whitespace.
    """
    entries = list(entries)
    for key, _ in entries:
        if key.split() != [key]:
            raise VenuerecError("vector key %r is empty or contains "
                                "whitespace" % key)
    dim = len(entries[0][1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(entries), dim))
        for key, vec in entries:
            row = np.asarray(vec, dtype=np.float64).tolist()
            fh.write("%s %s\n" % (key, " ".join(map(repr, row))))


def _load_text(path):
    # every cosine takes this norm; float32 binary values cannot overflow it
    found = _read_well_formed(path)
    if found is not None:
        _, terms, matrix = found
        if np.all(np.isfinite(_squared_norms(matrix))):
            return EmbeddingStore(terms, matrix)
    # line by line, so the first line at fault, whether it overflows or
    # is malformed, is the one named
    terms, vectors = [], []
    with np.errstate(over="ignore"):
        for lineno, term, vec in _read_lines(path):
            if not np.isfinite(np.dot(vec, vec)):
                raise FormatError("squared norm of term %r overflows a float"
                                  % term, path=path, line=lineno)
            terms.append(term)
            vectors.append(vec)
    return EmbeddingStore(terms, np.array(vectors))


def _load_binary(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise FormatError("missing header", path=path)
    header = blob[:nl].split()
    if len(header) != 2:
        raise FormatError("malformed header", path=path, line=1)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("malformed header", path=path, line=1) from None
    if count < 1 or dim < 1:
        raise FormatError("header counts must be positive", path=path, line=1)
    pos = nl + 1
    record = 4 * dim
    terms = []
    vectors = []
    seen = set()
    for _ in range(count):
        space = blob.find(b" ", pos)
        if space < 0:
            raise FormatError("truncated record", path=path, offset=pos)
        try:
            term = blob[pos:space].decode("utf-8").lstrip("\n")
        except UnicodeDecodeError:
            raise FormatError("term is not valid UTF-8", path=path,
                              offset=pos) from None
        if not term:
            raise FormatError("empty term", path=path, offset=pos)
        if term in seen:
            raise FormatError("duplicate term %r" % term, path=path,
                              offset=pos)
        seen.add(term)
        pos = space + 1
        if pos + record > len(blob):
            raise FormatError("truncated vector for term %r" % term,
                              path=path, offset=pos)
        vec = np.frombuffer(blob[pos:pos + record], dtype="<f4")
        if not np.all(np.isfinite(vec)):
            raise FormatError("non-finite component for term %r" % term,
                              path=path, offset=pos)
        vectors.append(vec.astype(np.float64))
        terms.append(term)
        pos += record
        if pos < len(blob) and blob[pos:pos + 1] == b"\n":
            pos += 1
    if pos != len(blob):
        raise FormatError("trailing data after %d records" % count,
                          path=path, offset=pos)
    return EmbeddingStore(terms, np.array(vectors))
