"""The benchmark's tracer wraps library names that exist, and restores them.

`bench/layers.register` names library functions and methods by string, so
deleting or renaming one breaks every traced bench run; this catches it
without running the benchmark.
"""

from conftest import REPO


def _current(owner, attr):
    # the lookup Tracer.active makes: a class's own attribute, or a module's
    return vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.register(tracer)
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, _ in tracer._targets]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, original in originals if original is None]
    assert not missing

    with tracer.active():
        assert all(_current(owner, attr) is not original for owner, attr, original in originals)
    assert all(_current(owner, attr) is original for owner, attr, original in originals)
