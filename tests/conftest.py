import pytest

from prefnet import (
    FuzzyInterpretation,
    WeightedKB,
    build_preferences,
    parse_kb,
)
from genutil import crisp_interpretation

EMPLOYEE_KB_TEXT = """\
distinguished: Employee, Student
strict: Employee [= Adult
strict: Adult [= exists has_SSN.Top
strict: PhdStudent [= Student
def(Employee): T(Employee) [= Young @ -50
def(Employee): T(Employee) [= exists has_boss.Employee @ 100
def(Employee): T(Employee) [= exists has_classes.Top @ -70
def(Student): T(Student) [= Young @ 90
def(Student): T(Student) [= exists has_classes.Top @ 80
def(Student): T(Student) [= exists hasScholarship.Top @ -30
"""


@pytest.fixture
def employee_kb_text() -> str:
    return EMPLOYEE_KB_TEXT


@pytest.fixture
def employee_kb() -> WeightedKB:
    return parse_kb(EMPLOYEE_KB_TEXT)


@pytest.fixture
def employee_interp() -> FuzzyInterpretation:
    # tom: employee with classes, no boss, not young -> only the -70 default.
    # bob: young employee with an employee boss, no classes -> -50 + 100.
    domain = ["tom", "bob", "ssn1", "ssn2", "class1"]
    return crisp_interpretation(
        domain=domain,
        concept_members={
            "Employee": {"tom", "bob"},
            "Student": set(),
            "PhdStudent": set(),
            "Adult": {"tom", "bob"},
            "Young": {"bob"},
        },
        role_pairs={
            "has_SSN": {("tom", "ssn1"), ("bob", "ssn2")},
            "has_boss": {("bob", "tom")},
            "has_classes": {("tom", "class1")},
            "hasScholarship": set(),
        },
        individuals={"tom": "tom", "bob": "bob"},
    )


@pytest.fixture
def employee_model(employee_kb, employee_interp):
    return build_preferences(employee_kb, employee_interp)
