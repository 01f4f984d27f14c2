"""Mutations of a JSON document, for the fuzz tests of its loader."""

import json

DELETED = object()
#: What each leaf and subtree is replaced by; ``DELETED`` removes it. The
#: 401-digit integer is beyond every float.
REPLACEMENTS = (None, "x", -1, 2.5, 10**400, float("nan"), float("inf"), [], {}, True, DELETED)


def mutations(doc):
    """``(path, value, text)`` for each leaf and subtree of ``doc`` (of a
    list, its first two items) and each of ``REPLACEMENTS``: the JSON text
    of the document with that node replaced by the value."""

    def paths(node, path=()):
        yield path
        items = node.items() if isinstance(node, dict) else (
            enumerate(node[:2]) if isinstance(node, list) else ())
        for key, child in items:
            yield from paths(child, path + (key,))

    for path in list(paths(doc))[1:]:
        for value in REPLACEMENTS:
            mutated = json.loads(json.dumps(doc))
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, json.dumps(mutated)
