import tracemalloc
import warnings

import numpy as np
import pytest

from srpc import (SignedAdjacency, from_edge_list, hadamard_rows, pbiased_values,
                  read_graph, write_graph)
from srpc import graphs
from srpc.errors import InputError, ParameterError
from srpc.graphs import row_products


def random_graph(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    signs = np.where(np.triu(upper, 1), 1, -1).astype(np.int8)
    signs = np.triu(signs, 1)
    signs = signs + signs.T
    signs[signs == 0] = -1
    np.fill_diagonal(signs, 1)
    return SignedAdjacency(signs)


def test_empty_graph():
    g = from_edge_list(3, [])
    expected = -np.ones((3, 3), dtype=np.int8)
    np.fill_diagonal(expected, 1)
    assert np.array_equal(g.signs, expected)


def test_complete_graph():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert np.all(g.signs == 1)


def test_single_edge():
    g = from_edge_list(4, [(0, 1)])
    assert g.signs[0, 1] == 1 and g.signs[1, 0] == 1
    off = g.signs.copy()
    off[0, 1] = off[1, 0] = -1
    np.fill_diagonal(off, -1)
    assert np.all(off == -1)


def test_edge_validation():
    with pytest.raises(InputError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(InputError):
        from_edge_list(3, [(1, 1)])
    # the message names the first bad edge, whatever its kind
    with pytest.raises(InputError, match=r"self-loop \(1,1\)"):
        from_edge_list(3, np.array([(0, 1), (1, 1), (0, 3)]))
    with pytest.raises(InputError, match=r"edge \(-1,2\) has an endpoint outside"):
        from_edge_list(3, [(0, 1), (-1, 2), (2, 2)])
    with pytest.raises(InputError):
        from_edge_list(3, [(0, 1, 2)])
    with pytest.raises(InputError):
        from_edge_list(3, [(0.5, 1)])


def test_from_edge_list_accepts_arrays_and_iterables():
    edges = [(0, 2), (1, 3), (2, 3)]
    expected = from_edge_list(4, edges)
    assert from_edge_list(4, np.array(edges)) == expected
    assert from_edge_list(4, iter(edges)) == expected
    assert from_edge_list(4, (e for e in edges + [(3, 1)])) == expected
    assert from_edge_list(4, np.empty((0, 2), dtype=np.int64)) == from_edge_list(4, [])


def test_constructor_invariants_on_random_inputs():
    for seed in range(5):
        g = random_graph(40, seed)
        assert np.array_equal(g.signs, g.signs.T)
        assert np.all(np.diag(g.signs) == 1)
        assert np.all(np.abs(g.signs) == 1)


def test_constructor_rejects_asymmetry_and_bad_diagonal():
    signs = -np.ones((3, 3), dtype=np.int8)
    np.fill_diagonal(signs, 1)
    signs[0, 1] = 1  # not mirrored
    with pytest.raises(InputError):
        SignedAdjacency(signs)
    signs[1, 0] = 1
    signs[2, 2] = -1
    with pytest.raises(InputError):
        SignedAdjacency(signs)


def test_constructor_rejects_non_square_and_non_sign_entries():
    with pytest.raises(InputError, match="square"):
        SignedAdjacency(np.ones((2, 3), dtype=np.int8))
    with pytest.raises(InputError, match="square"):
        SignedAdjacency(np.ones(4, dtype=np.int8))
    for bad in (0, 2, -128):
        signs = np.ones((3, 3), dtype=np.int8)
        signs[0, 2] = signs[2, 0] = bad
        with pytest.raises(InputError, match=r"\+1 or -1"):
            SignedAdjacency(signs)
    with pytest.raises(InputError, match=r"\+1 or -1"):
        SignedAdjacency(np.full((2, 2), 257, dtype=np.int16))


SYMMETRY = "adjacency matrix is not symmetric"
ENTRIES = "entries must be +1 or -1"
DIAGONAL = "diagonal entries must be +1"


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_constructor_checks_every_tile(n):
    # 256 x 256 tiles: (1, 2) is in a diagonal tile, (0, n-1) in an off-diagonal
    # tile once n > 256, and (n-1, n-2) in the last, possibly partial, tile
    good = random_graph(n, n).signs
    assert SignedAdjacency(good.copy()) == SignedAdjacency(good.astype(np.int64))
    cases = [((i, j), -good[i, j], SYMMETRY)
             for i, j in {(1, 2), (2, 1), (0, n - 1), (n - 1, 0), (n - 1, n - 2), (n - 2, n - 1)}
             if 0 <= min(i, j) and i != j and max(i, j) < n]
    cases += [((i, j), 0, ENTRIES) for i, j in {(0, 0), (0, n - 1), (n - 1, n // 2)}]
    cases += [((i, i), -1, DIAGONAL) for i in {0, n // 2, n - 1}]
    for (i, j), value, message in cases:
        signs = good.copy()
        signs[i, j] = value
        with pytest.raises(InputError) as info:
            SignedAdjacency(signs)
        assert str(info.value) == message, (i, j, value)
    # a 0 entry is reported before the asymmetry it also causes
    if n > 1:
        signs = good.copy()
        signs[n - 1, 0] = -signs[n - 1, 0]
        signs[0, 1] = signs[1, 0] = 0
        with pytest.raises(InputError, match=r"\+1 or -1"):
            SignedAdjacency(signs)


def test_signs_are_read_only_int8_and_owned():
    signs = np.where(np.eye(4, dtype=bool), 1, -1).astype(np.int8)
    g = SignedAdjacency(signs)
    assert g.signs is signs and g.signs.dtype == np.int8 and g.n == 4
    with pytest.raises(ValueError):
        g.signs[0, 1] = 1
    # other dtypes are converted once
    h = SignedAdjacency(signs.astype(np.float64))
    assert h.signs.dtype == np.int8 and not h.signs.flags.writeable
    assert h == g


def test_signs_roundtrip_via_constructor():
    g = random_graph(77, 3)
    rebuilt = SignedAdjacency(g.signs.copy())
    assert rebuilt == g
    assert rebuilt != from_edge_list(77, [])
    assert rebuilt != from_edge_list(5, [])


def test_p_biased_values():
    g = from_edge_list(2, [(0, 1)])
    values = pbiased_values(g.signs, 4 / 5)
    assert values.dtype == np.float64
    assert values[0, 1] == values[0, 0] == 0.5  # p_plus = 1/2 exactly
    empty = from_edge_list(2, [])
    assert pbiased_values(empty.signs, 4 / 5)[0, 1] == pytest.approx(-2.0, rel=1e-12)


def test_p_biased_constants_at_one_fifth():
    g = from_edge_list(3, [(0, 1)])
    values = pbiased_values(g.signs, 1 / 5)
    plus, minus = values[0, 1], -values[0, 2]
    assert np.abs(values).max() == pytest.approx(2.0, rel=1e-12)
    assert plus * minus == pytest.approx(1.0, abs=1e-12)


def test_p_half_reduces_to_sign_matrix():
    g = random_graph(25, 9)
    assert np.array_equal(pbiased_values(g.signs, 0.5), g.signs.astype(np.float64))


def test_p_biased_mean_zero_variance_one():
    # under edge probability p the mapped entry has mean 0 and variance 1
    for p in (0.2, 0.5, 0.77):
        plus = np.sqrt((1 - p) / p)
        minus = np.sqrt(p / (1 - p))
        assert p * plus - (1 - p) * minus == pytest.approx(0.0, abs=1e-12)
        assert p * plus**2 + (1 - p) * minus**2 == pytest.approx(1.0, rel=1e-12)


def test_p_biased_rejects_bad_p():
    g = from_edge_list(2, [])
    for p in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ParameterError):
            pbiased_values(g.signs, p)


def test_hadamard_rows_complete_graph():
    g = from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert np.all(hadamard_rows(g, {0, 1, 2}) == 1)


def test_hadamard_single_row_is_verbatim():
    g = random_graph(19, 4)
    for i in (0, 7, 18):
        assert np.array_equal(hadamard_rows(g, [i]), g.signs[i])


def test_hadamard_two_rows_hand_case():
    # n=2 empty graph: rows (+1,-1) and (-1,+1) multiply entrywise to (-1,-1)
    g = from_edge_list(2, [])
    assert np.array_equal(g.signs, np.array([[1, -1], [-1, 1]]))
    assert np.array_equal(hadamard_rows(g, [0, 1]), np.array([-1, -1]))


def test_hadamard_matches_dense_products_randomly():
    g = random_graph(33, 6)
    rng = np.random.default_rng(0)
    for _ in range(20):
        size = int(rng.integers(1, 4))
        alpha = rng.choice(33, size=size, replace=False)
        rp = hadamard_rows(g, alpha)
        expected = np.prod(g.signs[np.sort(alpha)].astype(np.int64), axis=0)
        assert np.array_equal(rp, expected)
        assert set(np.unique(rp)) <= {-1, 1}


@pytest.mark.parametrize("s", [1, 2, 3])
def test_row_products_match_per_alpha_products(s):
    g = random_graph(29, 12)
    pbiased = pbiased_values(g.signs, 0.3)
    rng = np.random.default_rng(s)
    alphas = np.sort(np.array([rng.choice(29, size=s, replace=False) for _ in range(11)]),
                     axis=1)
    signs = row_products(g.signs, alphas)
    assert signs.dtype == np.int8
    values = row_products(pbiased, alphas)
    for row, vals, alpha in zip(signs, values, alphas):
        assert np.array_equal(row, np.prod(g.signs[alpha].astype(np.int64), axis=0))
        assert np.allclose(vals, np.prod(pbiased[alpha], axis=0), rtol=1e-15)
        # bit-identical to multiplying the rows one by one, in index order
        expected = pbiased[alpha[0]]
        for i in alpha[1:]:
            expected = expected * pbiased[i]
        assert np.array_equal(vals, expected)


def test_hadamard_validation():
    g = random_graph(6, 1)
    with pytest.raises(InputError):
        hadamard_rows(g, [])
    with pytest.raises(InputError):
        hadamard_rows(g, [1, 1])
    with pytest.raises(InputError):
        hadamard_rows(g, [0, 1, 2, 3])
    with pytest.raises(InputError):
        hadamard_rows(g, [6])


def test_planted_inner_product_is_exactly_k():
    # for vertices inside a planted clique the restricted inner product is k
    from srpc import generate, strategy_erdos_renyi
    inst = generate(40, 9, 0.5, strategy_erdos_renyi(), seed=3)
    s = list(inst.planted)
    i, j = s[0], s[4]
    vi = hadamard_rows(inst.graph, [i])[s]
    vj = hadamard_rows(inst.graph, [j])[s]
    assert int(vi @ vj) == 9


def test_planted_inner_product_p_biased_triple():
    # <G_alpha, G_j> restricted to S* is k * p_plus**4 exactly at p=4/5
    from srpc import generate, strategy_erdos_renyi
    inst = generate(40, 9, 0.8, strategy_erdos_renyi(), seed=4)
    values = pbiased_values(inst.graph.signs, 0.8)  # p_plus = 1/2 exactly
    s = list(inst.planted)
    alpha = s[:3]
    j = s[5]
    va = row_products(values, np.array([alpha]))[0][s]
    vj = values[j][s]
    assert float(va @ vj) == 9 * 0.5**4


def test_graph_file_roundtrip(tmp_path):
    g = random_graph(30, 11)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    # byte-reproducible writer
    path2 = tmp_path / "g2.txt"
    write_graph(g, path2)
    assert path.read_bytes() == path2.read_bytes()
    header = path.read_text().splitlines()[0]
    assert header == "srpc-graph v1 n=30"


def test_generate_write_read_roundtrip_never_packs(tmp_path, monkeypatch):
    # graphs hold dense signs; the bit-packed layout is only a test reference
    from srpc import bits, generate, strategy_erdos_renyi

    def refuse(*args, **kwargs):
        raise AssertionError("graph code must not touch the packed layout")

    monkeypatch.setattr(bits, "pack_sign_rows", refuse)
    monkeypatch.setattr(bits, "unpack_sign_rows", refuse)
    inst = generate(70, 12, 0.5, strategy_erdos_renyi(), seed=8)
    path = tmp_path / "g.txt"
    write_graph(inst.graph, path)
    assert read_graph(path) == inst.graph


def reference_graph_text(graph):
    """The per-edge f-string writer that write_graph replaced: the byte reference."""
    iu, ju = np.nonzero(np.triu(graph.signs, 1) > 0)
    lines = [f"srpc-graph v1 n={graph.n}"]
    for i, j in sorted(zip(iu.tolist(), ju.tolist())):
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def join_all_graph_text(graph):
    """The whole-file join writer that write_graph replaced: the second byte reference."""
    n = graph.n
    iu, ju = np.divmod(np.flatnonzero(np.triu(graph.signs > 0, 1)), n)
    names = np.array([str(v) for v in range(n)], dtype=object)
    bounds = np.searchsorted(iu, np.arange(n + 1))
    lines = [f"srpc-graph v1 n={n}"]
    for i in np.flatnonzero(np.diff(bounds)):
        prefix = names[i] + " "
        lines.append(prefix + ("\n" + prefix).join(names[ju[bounds[i]:bounds[i + 1]]]))
    return "\n".join(lines) + "\n"


def row_join_graph_text(graph):
    """The per-row join writer that the block writer replaced: the third byte reference."""
    n = graph.n
    upper = np.triu(graph.signs > 0, 1)
    names = np.array([str(v) for v in range(n)], dtype=object)
    lines = [f"srpc-graph v1 n={n}\n"]
    for i in np.flatnonzero(upper.any(axis=1)):
        prefix = names[i] + " "
        lines.append(prefix + ("\n" + prefix).join(names[np.flatnonzero(upper[i])]) + "\n")
    return "".join(lines)


def row_block_write_graph(graph, path):
    """The per-row block writer that the record writer replaced: the byte reference."""
    n = graph.n
    names = np.array([str(v) for v in range(n)], dtype=object)
    rows_per_block = max(1, (1 << 20) // max(n, 1))
    with open(path, "w") as fh:
        fh.write(f"srpc-graph v1 n={n}\n")
        for start in range(0, n, rows_per_block):
            keys = np.flatnonzero(graph.signs[start:start + rows_per_block] > 0)
            rows = np.arange(min(rows_per_block, n - start))
            lo = np.searchsorted(keys, rows * (n + 1) + start, side="right").tolist()
            hi = np.searchsorted(keys, (rows + 1) * n).tolist()
            for r in rows[np.greater(hi, lo)].tolist():
                prefix = names[start + r] + " "
                cols = keys[lo[r]:hi[r]] - r * n
                fh.write(prefix + ("\n" + prefix).join(names[cols]) + "\n")


def isolated_graph(n, seed):
    """A random graph where every third vertex, and the last, has no edges."""
    signs = random_graph(n, seed).signs.copy()
    lonely = np.r_[np.arange(0, n, 3), n - 1]
    signs[lonely] = -1
    signs[:, lonely] = -1
    np.fill_diagonal(signs, 1)
    return SignedAdjacency(signs)


@pytest.mark.parametrize("kind", ["edgeless", "complete", "random", "sparse", "isolated",
                                  "clique_union"])
@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 129, 300, 1000, 1001])
def test_graph_file_matches_reference_writer(tmp_path, monkeypatch, n, kind):
    if kind == "random":
        graph = random_graph(n, n)
    elif kind == "sparse":
        graph = random_graph(n, n + 1, p=0.05)
    elif kind == "isolated":
        graph = isolated_graph(n, n)
    elif kind == "clique_union":
        from srpc import generate, strategy_clique_union
        graph = generate(n, max(1, n // 5), 0.3, strategy_clique_union(), seed=n).graph
    else:
        off_diagonal = 1 if kind == "complete" else -1
        graph = SignedAdjacency(np.where(np.eye(n, dtype=bool), 1, off_diagonal))
    path = tmp_path / "g.txt"
    text = reference_graph_text(graph)
    assert text == join_all_graph_text(graph) == row_join_graph_text(graph)
    row_block_write_graph(graph, path)
    assert path.read_bytes() == text.encode()
    # the default block of rows, one row per block, and blocks that end mid-graph;
    # n crosses every change of the vertex names' width
    for chunk in (graphs._WRITE_BLOCK_BYTES, 7, 7 * n, 40 * n):
        monkeypatch.setattr(graphs, "_WRITE_BLOCK_BYTES", chunk)
        write_graph(graph, path)
        assert path.read_bytes() == text.encode(), chunk
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_graph(path) == graph


def test_write_graph_peak_memory_stays_below_two_bytes_per_matrix_entry(tmp_path):
    # the records of one block of rows are alive at a time, never the whole file
    n = 2048
    graph = random_graph(n, 4)
    tracemalloc.start()
    try:
        write_graph(graph, tmp_path / "g.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_graph(tmp_path / "g.txt") == graph
    assert peak < 2 * n * n


@pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"], ids=["lf", "lone-cr", "crlf"])
def test_read_graph_peak_memory_stays_below_two_bytes_per_matrix_entry(tmp_path, end):
    # the sign matrix and one chunk of the file are alive at a time, never the whole file
    n = 4096
    graph = random_graph(n, 5)
    write_graph(graph, tmp_path / "g.txt")
    if end != b"\n":  # chunks must still end at the CR or CRLF line ends
        path = tmp_path / "g.txt"
        path.write_bytes(path.read_bytes().replace(b"\n", end))
    tracemalloc.start()
    try:
        read = read_graph(tmp_path / "g.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == graph
    assert peak < 2 * n * n


def test_read_graph_accepts_blank_lines_tabs_and_crlf(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"srpc-graph v1 n=5\r\n\r\n 0 1\t\r\n\t0  4\n \t\n2\t3 \r\n\n")
    assert read_graph(path) == from_edge_list(5, [(0, 1), (0, 4), (2, 3)])
    path.write_bytes(b"srpc-graph v1 n=5\n \n\t\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_graph(path) == from_edge_list(5, [])


def _read_body(tmp_path, body, n=6):
    """read_graph of the header line and ``body``; a None body leaves the header unterminated."""
    path = tmp_path / "g.txt"
    header = f"srpc-graph v1 n={n}".encode()
    path.write_bytes(header if body is None else header + b"\n" + body)
    return read_graph(path)


@pytest.mark.parametrize("body, edges", [
    (b"0 1\n2 3", [(0, 1), (2, 3)]),
    (b"0 1\r2 3\r", [(0, 1), (2, 3)]),
    (b"00 0005\n001 2\n", [(0, 5), (1, 2)]),
    (b"0 " + b"0" * 24 + b"1\n", [(0, 1)]),
    (b"0" * 20 + b" " + b"0" * 19 + b"5\n", [(0, 5)]),
    (b"", []),
    (None, []),
], ids=["no-final-newline", "lone-cr", "leading-zeros", "25-digit-padded-one",
        "20-digit-padded-tokens", "header-only", "header-only-no-final-newline"])
def test_read_graph_accepts(tmp_path, body, edges):
    assert _read_body(tmp_path, body) == from_edge_list(6, edges)


@pytest.mark.parametrize("body, message", [
    (b"0 1 2\n3", "line 2: expected two integer vertex indices, got '0 1 2'"),
    (b"0\n1 2 3", "line 2: expected two integer vertex indices, got '0'"),
    (b"0\n1\n", "line 2: expected two integer vertex indices, got '0'"),
    (b"0 1 2 3\n", "line 2: expected two integer vertex indices, got '0 1 2 3'"),
    (b"0 " + b"9" * 25 + b"\n",
     f"line 2: edge (0,{'9' * 25}) has an endpoint outside [0,6)"),
    (b"0 1\n1 1" + b"0" * 19 + b"\n",
     f"line 3: edge (1,1{'0' * 19}) has an endpoint outside [0,6)"),
    (b"+0 1\n", "line 2: expected two integer vertex indices, got '+0 1'"),
    (b"0 -1\n", "line 2: expected two integer vertex indices, got '0 -1'"),
    (b"0 1\n\x00\n", "line 3: expected two integer vertex indices, got '\\x00'"),
    (b"0 1\n\x0b\n", "line 3: expected two integer vertex indices, got '\\x0b'"),
    (b"0 1\n\t\x0c \n", "line 3: expected two integer vertex indices, got '\\x0c'"),
    (b"0 1\n\xff 2\n", "line 3: expected two integer vertex indices, got '� 2'"),
    (b"0 1\n0 1\n", "line 3: edge (0,1) is a duplicate"),
    (b"1 2\n0 3\n", "line 3: edge (0,3) is out of order; edges must be sorted by (i, j)"),
    (b"2 1\n", "line 2: edge (2,1) is not written with i < j"),
    (b"3 3\n", "line 2: edge (3,3) is not written with i < j"),
    (b"0 6\n", "line 2: edge (0,6) has an endpoint outside [0,6)"),
], ids=["three-tokens", "one-token", "one-token-per-line", "four-tokens", "25-digit-endpoint",
        "20-digit-endpoint",
        "plus-sign", "minus-sign", "nul", "vertical-tab", "form-feed", "not-utf-8", "duplicate",
        "out-of-order", "i-above-j", "self-loop", "endpoint-at-n"])
def test_read_graph_refuses_with_exact_message(tmp_path, body, message):
    with pytest.raises(InputError) as info:
        _read_body(tmp_path, body)
    assert str(info.value) == message


@pytest.mark.parametrize("body, error, message", [
    (b"", ParameterError, "n must be >= 1"),
    (b"\n \n\t\n", ParameterError, "n must be >= 1"),
    (b"0 1\n", InputError, "line 2: edge (0,1) has an endpoint outside [0,0)"),
    (b"x\n", InputError, "line 2: expected two integer vertex indices, got 'x'"),
], ids=["empty", "blank-lines", "edge", "not-an-edge"])
def test_read_graph_at_n_zero_reports_a_body_line_first_then_n(tmp_path, body, error, message):
    with pytest.raises(error) as info:
        _read_body(tmp_path, body, n=0)
    assert str(info.value) == message


def test_read_graph_across_chunks(tmp_path, monkeypatch):
    # every line is 4 bytes ("i j\n"), so 16-byte chunks hold lines 4c .. 4c+3
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", 16)
    edges = [(i, j) for i in range(6) for j in range(i + 1, 10)]
    lines = [f"{i} {j}\n".encode() for i, j in edges]
    assert _read_body(tmp_path, b"".join(lines), n=10) == from_edge_list(10, edges)
    # (0,5) ends the first chunk and (0,4) starts the second
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    with pytest.raises(InputError) as info:
        _read_body(tmp_path, b"".join(swapped), n=10)
    assert str(info.value) == "line 6: edge (0,4) is out of order; edges must be sorted by (i, j)"
    with pytest.raises(InputError) as info:
        _read_body(tmp_path, b"".join(lines) + b"7\n", n=10)
    assert str(info.value) == (f"line {len(lines) + 2}: expected two integer vertex indices, "
                               f"got '7'")
    # a CRLF or lone CR counts as one line end wherever a read stops; 17-byte CRLF
    # lines put a "\r" at the end of every 16-byte span of the body
    for end in (b"\r\n", b"\r"):
        other = [f"{i} {j}".ljust(15).encode() + end for i, j in edges]
        assert _read_body(tmp_path, b"".join(other), n=10) == from_edge_list(10, edges)
        with pytest.raises(InputError) as info:
            _read_body(tmp_path, b"".join(other) + b"7" + end, n=10)
        assert str(info.value) == (f"line {len(lines) + 2}: expected two integer vertex "
                                   f"indices, got '7'"), end


@pytest.mark.parametrize("chunk", [7, 16, 64])
def test_read_graph_bad_line_at_every_chunk_boundary(tmp_path, monkeypatch, chunk):
    # 4-byte lines, so a bad line lands first in, last in and inside chunks
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", chunk)
    lines = [f"{i} {j}\n".encode() for i in range(4) for j in range(i + 1, 10)]
    for bad, shown in ((b"7\n", "7"), (b"1 2 3\n", "1 2 3"), (b"\t5 \n", "5")):
        for pos in range(len(lines) + 1):
            body = b"".join(lines[:pos]) + bad + b"".join(lines[pos:])
            with pytest.raises(InputError) as info:
                _read_body(tmp_path, body, n=10)
            assert str(info.value) == (f"line {pos + 2}: expected two integer vertex "
                                       f"indices, got {shown!r}"), (bad, pos)


@pytest.mark.parametrize("chunk", [7, 16, 64])
def test_read_graph_order_and_range_errors_at_every_chunk_boundary(tmp_path, monkeypatch,
                                                                    chunk):
    # The failed chunk alone is rescanned, from its own first line number and with the
    # key of the last edge before it; the 4-byte lines put the predecessor of a
    # duplicate or swapped edge both in the same chunk and in an earlier one.
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", chunk)
    edges = [(i, j) for i in range(4) for j in range(i + 1, 10)]
    lines = [f"{i} {j}\n".encode() for i, j in edges]
    for pos in range(1, len(lines)):
        i, j = edges[pos - 1]
        cases = [
            (lines[:pos] + [lines[pos - 1]] + lines[pos:], f"edge ({i},{j}) is a duplicate"),
            (lines[:pos - 1] + [lines[pos], lines[pos - 1]] + lines[pos + 1:],
             f"edge ({i},{j}) is out of order; edges must be sorted by (i, j)"),
            (lines[:pos] + [f"{i} {j + 10}\n".encode()] + lines[pos + 1:],
             f"edge ({i},{j + 10}) has an endpoint outside [0,10)"),
        ]
        for body, what in cases:
            with pytest.raises(InputError) as info:
                _read_body(tmp_path, b"".join(body), n=10)
            assert str(info.value) == f"line {pos + 2}: {what}", (pos, what)


def noisy_graph_bytes(graph, path, rng):
    """write_graph's file for ``graph`` with blank lines, tabs and CRLF or lone-CR ends inserted."""
    write_graph(graph, path)
    header, *lines = path.read_bytes().decode().split("\n")
    noisy = [header]
    for line in lines:
        if rng.random() < 0.2:
            noisy.append(str(rng.choice(["", " ", "\t", " \t "])))
        if line:
            i, j = line.split()
            lead, gap = rng.choice(["", "\t", " "]), rng.choice([" ", "\t", " \t"])
            line = f"{lead}{i}{gap}{j}"
        noisy.append(line)
    newline = str(rng.choice(["\n", "\r\n", "\r"]))
    return newline.join(noisy).encode()


def test_read_graph_round_trip_fuzz(tmp_path):
    # write_graph output with blank lines, tabs and CRLF or CR ends inserted reads back equal
    rng = np.random.default_rng(2024)
    for trial in range(40):
        graph = random_graph(int(rng.integers(1, 30)), trial, p=float(rng.random()))
        path = tmp_path / "g.txt"
        path.write_bytes(noisy_graph_bytes(graph, path, rng))
        assert read_graph(path) == graph


@pytest.mark.parametrize("chunk", [7, 16, 64])
def test_read_graph_small_chunks_match_default_read(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(chunk)
    paths = []
    for trial in range(12):
        graph = random_graph(int(rng.integers(1, 40)), trial, p=float(rng.random()))
        path = tmp_path / f"g{trial}.txt"
        path.write_bytes(noisy_graph_bytes(graph, path, rng))
        paths.append((path, graph, read_graph(path)))
    monkeypatch.setattr(graphs, "_CHUNK_BYTES", chunk)
    for path, graph, default in paths:
        assert read_graph(path) == default == graph
