"""Fuzzing the parser -> evaluator -> CTP pipeline with generated queries.

Every generated query must parse, validate, and evaluate without crashing;
whatever rows come back must respect the query's own constraints (head
arity, CTP filter bounds, tree validity).  A generated query with a few
characters deleted, inserted or swapped must parse or fail with a
``ParseError`` / ``ValidationError``, never anything else.
"""

import random

import pytest

from repro.ctp.results import ResultTree, is_tree
from repro.errors import ParseError, ValidationError
from repro.graph.datasets import figure1
from repro.query.evaluator import evaluate_query
from repro.query.parser import parse_query
from repro.workloads.queries import random_query
from repro.workloads.realworld import yago_like


@pytest.fixture(scope="module")
def small_kg():
    return yago_like(scale=0.01).graph


class TestGenerator:
    def test_deterministic(self):
        graph = figure1()
        a = random_query(graph, random.Random(5))
        b = random_query(graph, random.Random(5))
        assert a == b

    def test_generated_queries_parse(self):
        graph = figure1()
        for seed in range(50):
            text = random_query(graph, random.Random(seed))
            query = parse_query(text)  # must not raise
            assert query.head

    def test_rejects_empty_graph(self):
        from repro.graph.graph import Graph
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            random_query(Graph())


#: What a mutation may insert: the query language's punctuation, both
#: quote kinds, keyword letters, digits, whitespace and a non-ASCII letter.
MUTATION_ALPHABET = "{}()<>=!.,;*?\"'#_-+/ \n\tAaSELCTWHRNXIMé0123456789"


def _mutate(text, rng):
    """``text`` with 1-3 random character deletions, insertions or swaps."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        operation = rng.choice(("delete", "insert", "swap"))
        if operation == "insert" or not chars:
            chars.insert(rng.randint(0, len(chars)), rng.choice(MUTATION_ALPHABET))
        elif operation == "delete":
            del chars[rng.randrange(len(chars))]
        else:
            i, j = rng.randrange(len(chars)), rng.randrange(len(chars))
            chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


@pytest.mark.parametrize("seed", range(20))
def test_mutated_queries_parse_or_raise_query_errors(seed):
    graph = figure1()
    rng = random.Random(seed)
    for _ in range(100):
        text = _mutate(random_query(graph, rng), rng)
        try:
            parse_query(text)
        except (ParseError, ValidationError):
            pass
        except Exception as error:
            pytest.fail(f"{type(error).__name__} parsing {text!r}: {error}")


class TestPipelineFuzz:
    @pytest.mark.parametrize("seed", range(30))
    def test_figure1_fuzz(self, seed):
        graph = figure1()
        text = random_query(graph, random.Random(seed), timeout=1.0)
        result = evaluate_query(graph, text, default_timeout=2.0)
        query = parse_query(text)
        assert result.columns == query.head
        limit = query.limit
        if limit is not None:
            assert len(result) <= limit
        for row in result.rows:
            assert len(row) == len(result.columns)
            for value in row:
                if isinstance(value, ResultTree):
                    assert is_tree(graph, value.edges)

    @pytest.mark.parametrize("seed", range(12))
    def test_knowledge_graph_fuzz(self, small_kg, seed):
        text = random_query(small_kg, random.Random(seed * 7 + 1), timeout=1.0)
        result = evaluate_query(small_kg, text, default_timeout=2.0)
        # CTP filter bounds must hold on every returned tree
        query = parse_query(text)
        bounds = {ctp.tree_var: ctp.filters for ctp in query.ctps}
        for row in result.rows:
            for column, value in zip(result.columns, row):
                if isinstance(value, ResultTree) and column in bounds:
                    filters = bounds[column]
                    if filters.max_edges is not None:
                        assert value.size <= filters.max_edges
                    if filters.labels is not None:
                        labels = {small_kg.edge(e).label for e in value.edges}
                        assert labels <= filters.labels
