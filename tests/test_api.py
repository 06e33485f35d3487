import inspect

from wedgebound import quad_J, quadrature, spectral, trial, variational

# every optional parameter of a public function; a new one is a new knob
# that each caller, test and benchmark must cover
OPTIONAL_PARAMETERS = {("integrate", "breakpoints"), ("solve", "L"), ("solve", "h")}


def test_optional_parameters_are_pinned():
    found = set()
    for module in (trial, quadrature, variational, spectral):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add((name, param.name))
    assert found == OPTIONAL_PARAMETERS


def test_quadrature_knows_only_the_error_type_of_trial():
    # every integral of the trial family lives in variational; quadrature
    # shares only trial's DomainError
    from_trial = {
        name
        for name, obj in vars(quadrature).items()
        if getattr(obj, "__module__", None) == trial.__name__
    }
    assert from_trial == {"DomainError"}
    assert quad_J.__module__ == variational.__name__
