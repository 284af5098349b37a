import inspect

import simcurv
from simcurv import curvature


def test_all_names_resolve_and_are_sorted():
    for name in simcurv.__all__:
        assert hasattr(simcurv, name), name
    assert simcurv.__all__ == sorted(simcurv.__all__)


def test_all_exports_every_curvature_and_check():
    public = {
        name
        for name, obj in vars(curvature).items()
        if inspect.isfunction(obj)
        and obj.__module__ == curvature.__name__
        and not name.startswith("_")
        and (name.endswith("_check") or "curvature" in name or "defect" in name)
    }
    assert "curvature_table" in public
    assert public <= set(simcurv.__all__), public - set(simcurv.__all__)
