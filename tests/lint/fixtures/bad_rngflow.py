"""Deliberately broken: F5xx interprocedural stream-order rules."""


def _jitter(rng, hits):
    return hits * (1.0 + rng.random(hits.size))


def _relabel(rng, rows):
    return _jitter(rng, rows)


def apply_event(tables, rng, rows):
    # The draw happens two calls down, in _jitter: F501 follows the
    # call graph and reports the draw site there.
    return _relabel(rng, rows)


def kernel_divergent(blocks, rng, flags):
    out = []
    for index, block in enumerate(blocks):
        if flags[index]:
            out.append(block + rng.random())  # F502: then-branch draws
        else:
            out.append(block)
    return out


def kernel_divergent_via_helper(blocks, rng, flags):
    out = []
    for index, block in enumerate(blocks):
        if flags[index]:
            out.append(_jitter(rng, block))  # F502: the helper draws
        else:
            out.append(block)
    return out


def draw_by_dict_order(rng, table):
    out = {}
    for key in table.keys():  # F503: dict-view order feeds the stream
        out[key] = rng.random()
    return out
