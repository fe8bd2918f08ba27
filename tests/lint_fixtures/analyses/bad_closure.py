"""R005 fixture: closures handed to plan builders by name."""


def closure_queries(edges, size):
    def reverse_edge(edge):
        return (edge[1], edge[0])

    keep = lambda edge: edge[0] != size

    reversed_edges = edges.select(reverse_edge)  # VIOLATION: nested def
    kept = reversed_edges.where(keep)  # VIOLATION: name bound to a lambda

    def inner():
        return kept.select(reverse_edge)  # VIOLATION: enclosing function's def

    return inner()
