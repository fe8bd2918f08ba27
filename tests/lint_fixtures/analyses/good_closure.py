"""R005 clean twin of bad_closure.py: the same functions at module level."""


def reverse_edge(edge):
    return (edge[1], edge[0])


def keep(edge):
    return edge[0] != edge[1]


def closure_queries(edges):
    reversed_edges = edges.select(reverse_edge)
    kept = reversed_edges.where(keep)

    def inner():
        return kept.select(reverse_edge)

    return inner()
