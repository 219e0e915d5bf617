from types import ModuleType

import rldc


def test_all_exports_names_not_modules():
    for name in rldc.__all__:
        assert not isinstance(getattr(rldc, name), ModuleType), name
    assert {"REJECT", "preprocess_pipeline", "decode_index", "verify_claims"} <= set(rldc.__all__)
