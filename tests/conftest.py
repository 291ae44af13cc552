import os

from quotbox.quotfixed import _entries, _layer_transfer, _window

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# the triples the engine tests and acceptance criteria run on
GRID = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2), (1, 2, 3)]


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def _data_lines(name):
    with open(fixture_path(name)) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def load_count_table(name):
    """Parse 'n count' lines into a dict."""
    out = {}
    for line in _data_lines(name):
        n, c = line.split()
        out[int(n)] = int(c)
    return out


def load_coeff_table(name):
    """Parse 'k1 k2 ... | c0 c1 ...' lines into {key tuple: coeff list}."""
    out = {}
    for line in _data_lines(name):
        head, _, tail = line.partition("|")
        key = tuple(int(t) for t in head.split())
        out[key] = [int(t) for t in tail.split()]
    return out


def consistent_strata(params, order):
    """The strata the engine's walk lists for params through order, as
    (entries, drop, χ) in pre-order, the entries decoded to weights."""
    window = _window(params, order)
    out = []

    def visit(held, doubles, drop, chi):
        out.append((tuple(_entries(held, doubles, window)), drop, chi))

    _layer_transfer(params, order, visit)
    return out
