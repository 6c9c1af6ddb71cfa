import contextlib
import errno
import os
from pathlib import Path
from unittest import mock

import pytest

from roughmv import FractionalKernel, MarketParams, RateCurve, TimeGrid

# Hedge-term study parameters: sigma=0.3, kappa=0.3, theta=1.5, rho=-0.7,
# T=3, gamma=0.5, flat zero rate; variance level 0.04 (level does not enter
# the strategy coefficients).
STUDY = dict(sigma=0.3, kappa=0.3, theta=1.5, rho=-0.7, gamma=0.5, horizon=3.0)


def study_market(hurst: float, rho: float = STUDY["rho"], rate: float = 0.0,
                 kappa: float = STUDY["kappa"]) -> MarketParams:
    return MarketParams(
        nu0=0.04,
        kappa=kappa,
        phi=0.04,
        sigma=STUDY["sigma"],
        rho=rho,
        theta=STUDY["theta"],
        rate_curve=RateCurve.flat(rate),
        kernel=FractionalKernel.from_hurst(hurst),
    )


@pytest.fixture
def grid750() -> TimeGrid:
    return TimeGrid(3.0, 750)


@pytest.fixture
def market_rough() -> MarketParams:
    return study_market(0.1)


@pytest.fixture
def market_smooth() -> MarketParams:
    return study_market(0.5)


class _DiskFillsUp:
    """A file handle whose first write lands and then fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, texts):
        for text in texts:
            self.write(text)


@contextlib.contextmanager
def disk_full_at_part(k=None, at="write"):
    """Path.open of the k-th <name>.part (from 0; None: no failure) fails as
    on a full disk, at the open or at the first write.  Yields the list of
    (name, real handle) of every part opened."""
    real_open = Path.open
    opened = []

    def open_(path, *args, **kwargs):
        if path.suffix != ".part":
            return real_open(path, *args, **kwargs)
        if len(opened) == k and at == "open":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        fh = real_open(path, *args, **kwargs)
        opened.append((path.name, fh))
        return _DiskFillsUp(fh) if len(opened) - 1 == k else fh

    with mock.patch.object(Path, "open", open_):
        yield opened
