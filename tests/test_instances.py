import pytest

from cutfair.allocation import check_ef1
from cutfair.instances import (
    Instance,
    ParseError,
    SplitMix64,
    from_label,
    gen_appendix_a,
    gen_appendix_b,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_fig1,
    gen_fig3,
    gen_path,
    gen_random_forest,
    gen_random_graph,
    gen_star,
    read_allocation,
    read_instance,
    write_allocation,
    write_instance,
)


def test_splitmix64_reference_vectors():
    # first outputs for seeds 0 and 1234567 from the reference implementation
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(2)] == [
        6457827717110365317,
        3203168211198807973,
    ]


def test_splitmix64_below_and_chance():
    r = SplitMix64(42)
    draws = [r.below(10) for _ in range(1000)]
    assert all(0 <= x < 10 for x in draws)
    assert set(draws) == set(range(10))
    with pytest.raises(ValueError):
        r.below(0)
    r2 = SplitMix64(42)
    assert all(r2.chance(1.0) for _ in range(10))
    assert not any(r2.chance(0.0) for _ in range(10))


def test_two_hub_generator():
    for d in (3, 5, 7):
        inst = gen_fig3(d)
        g = inst.graph
        assert g.num_vertices == d + 2
        assert g.num_edges == 2 * d
        assert g.degree(0) == g.degree(1) == d
        assert all(g.degree(v) == 2 for v in range(2, d + 2))
        assert inst.num_agents == 3
    for bad in (2, 4, 1):
        with pytest.raises(ValueError):
            gen_fig3(bad)


def test_joined_stars_generator():
    g = gen_fig1().graph
    assert g.num_vertices == 8
    assert g.num_edges == 7
    assert g.degree(0) == g.degree(4) == 4
    assert g.is_forest()


def test_three_stars_partial_generator():
    inst = gen_appendix_a()
    g = inst.graph
    assert g.num_vertices == 14
    assert g.num_edges == 11
    assert len(g.connected_components()) == 3
    assert inst.partial is not None
    assert inst.partial.assigned() == set(range(14)) - {1}
    assert check_ef1(inst.partial, g).holds


def test_near_complete_multipartite_generator():
    for n in (3, 4, 5):
        g = gen_appendix_b(n).graph
        hubs, rest = n - 2, 2 * n
        assert g.num_vertices == hubs + rest
        assert g.num_edges == hubs * (hubs - 1) // 2 + hubs * rest
    with pytest.raises(ValueError):
        gen_appendix_b(2)


def test_small_family_generators():
    assert gen_cycle(6).graph.num_edges == 6
    assert gen_path(6).graph.num_edges == 5
    assert gen_star(4).graph.degree(0) == 4
    assert gen_complete(5).graph.num_edges == 10
    g = gen_complete_bipartite(2, 3).graph
    assert g.num_edges == 6
    assert g.max_degree() == 3
    for fail in (
        lambda: gen_cycle(2),
        lambda: gen_path(1),
        lambda: gen_star(0),
        lambda: gen_complete(1),
        lambda: gen_complete_bipartite(0, 2),
    ):
        with pytest.raises(ValueError):
            fail()


def test_random_graph_deterministic_and_extremes():
    a = gen_random_graph(9, 0.4, 99).graph
    b = gen_random_graph(9, 0.4, 99).graph
    assert a.edges == b.edges
    assert gen_random_graph(5, 1.0, 1).graph.num_edges == 10
    assert gen_random_graph(5, 0.0, 1).graph.num_edges == 0
    with pytest.raises(ValueError):
        gen_random_graph(0, 0.5, 1)
    with pytest.raises(ValueError):
        gen_random_graph(3, 1.5, 1)


def test_random_forest_shape():
    for seed in range(20):
        inst = gen_random_forest(12, 3, seed)
        g = inst.graph
        assert g.is_forest()
        assert len(g.connected_components()) == 3
        assert all(g.degree(v) > 0 for v in range(g.num_vertices))
    with pytest.raises(ValueError):
        gen_random_forest(5, 3, 0)


def test_from_label():
    assert from_label("fig1").graph.num_vertices == 8
    assert from_label("fig3:d=5").graph.num_edges == 10
    assert from_label("appendixB:n=4").num_agents == 4
    assert from_label("cycle:6").graph.num_edges == 6
    with pytest.raises(ValueError, match="unknown instance label"):
        from_label("nope")
    with pytest.raises(ValueError, match="missing parameter"):
        from_label("fig3")


def test_instance_io_round_trip(tmp_path):
    inst = gen_fig3(5)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.graph.edges == inst.graph.edges
    assert back.graph.num_vertices == inst.graph.num_vertices
    assert back.num_agents == inst.num_agents


@pytest.mark.parametrize(
    "body, message",
    [
        ("e 1 2\n", "edge before header"),
        ("p fairdiv 2 1\n", "expected 'p fairdiv"),
        ("p fairdiv x 1 2\n", "non-integer header"),
        ("p fairdiv 2 1 2\ne 1 3\n", "out of range"),
        ("p fairdiv 2 1 2\ne 1 a\n", "non-integer endpoint"),
        ("p fairdiv 2 2 2\ne 1 2\n", "promises 2 edges"),
        ("p fairdiv 2 1 2\nq 1 2\n", "unknown line type"),
        ("c only a comment\n", "missing 'p fairdiv' header"),
        ("p fairdiv 2 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
        ("c agents\np fairdiv 3 2 0\ne 1 2\ne 2 3\n", ":2: agent count 0 is below 1"),
        ("p fairdiv 3 2 -1\ne 1 2\ne 2 3\n", ":1: agent count -1 is below 1"),
        ("p fairdiv 3 1 2\ne 1 2\np fairdiv 4 1 3\n", ":3: second 'p fairdiv' header"),
        ('{"bundles": [[0, 0], [1]]}', "bundle 0 lists a vertex twice"),
        ('{"n": 3, "bundles": [[0, 1], [2]]}', "'n' is 3 but there are 2 bundles"),
        ('{"n": "2", "bundles": [[0, 1], [2]]}', "'n' is '2' but there are 2 bundles"),
    ],
)
def test_instance_parse_errors(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    read = read_allocation if body.startswith("{") else read_instance
    with pytest.raises(ParseError, match=message):
        read(path)


def test_instance_comments_ignored(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("c hello\np fairdiv 3 1 2\nc mid\ne 1 3\n")
    inst = read_instance(path)
    assert inst.graph.edges == ((0, 2),)
    assert inst.num_agents == 2


def test_allocation_io_round_trip(tmp_path):
    from cutfair.allocation import Allocation

    a = Allocation.of([{0, 2}, set(), {1}])
    path = tmp_path / "alloc.json"
    write_allocation(a, path)
    assert read_allocation(path).bundles == a.bundles
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match="bundles"):
        read_allocation(bad)


def test_instance_is_frozen():
    inst = Instance(gen_path(3).graph, 2, "x")
    with pytest.raises(Exception):
        inst.num_agents = 5
