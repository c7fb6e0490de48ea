import pytest

from bidforward.predictor import PredictorConfig


@pytest.fixture
def predictor_cfg():
    return PredictorConfig(budget_norm=100, ttl_norm=8)
