import random

import pytest

from srquery.collections import ReviewTopic
from srquery.prompts import (
    TEMPLATE_IDS,
    EmptyPoolError,
    ExampleReview,
    MissingBindingError,
    PromptBindings,
    dice_score,
    hqe_example,
    load_manifest,
    load_template,
    render,
    select_related_example,
    template_digest,
)
from srquery.query_ast import parse


# ---------------------------------------------------------------------------
# template fidelity
# ---------------------------------------------------------------------------

def test_all_templates_hash_match_manifest():
    manifest = load_manifest()
    assert set(manifest) == set(TEMPLATE_IDS)
    for template_id in TEMPLATE_IDS:
        template = load_template(template_id)
        assert template_digest(template) == manifest[template_id], template_id


def test_q1_render_opening_words():
    text = render("q1", PromptBindings(review_title="X"))
    assert text.startswith("For a systematic review titled “X”")


def test_q4_renders_example_fields():
    text = render("q4", PromptBindings(
        review_title="My review",
        example_review_title="Example title",
        example_review_query="(a[All Fields] AND b[All Fields])",
    ))
    assert "“Example title”" in text
    assert "(a[All Fields] AND b[All Fields])" in text
    assert "My review" in text


def test_q4_missing_binding():
    with pytest.raises(MissingBindingError):
        render("q4", PromptBindings(review_title="X", example_review_title="Y"))


def test_q6_contains_correction_instruction():
    text = render("q6", PromptBindings(review_title="T", initial_query="(a AND b)"))
    assert "Please correct this query" in text
    assert '"(a AND b)"' in text


def test_q7_contains_refinement_example():
    text = render("q7", PromptBindings(
        review_title="T",
        initial_query="(seed AND query)",
        example_review_title="Example",
        example_review_initial_query="(before)",
        example_review_refined_query="(after)",
    ))
    assert "therefore it should be corrected to: “(after)”" in text
    assert "(before)" in text and "(seed AND query)" in text


def test_guided_step1_binds_seed_study():
    text = render("guided_step1", PromptBindings(
        seed_study_title="Seed title", seed_study_text="Seed abstract."
    ))
    assert 'statement: "Seed title"' in text
    assert "Text: Seed abstract." in text
    assert text.startswith("Follow my instructions precisely")


def test_steps_2_to_4_have_no_placeholders():
    for template_id in ("guided_step2", "guided_step3", "guided_step4"):
        assert load_template(template_id).placeholders() == set()
        assert render(template_id, PromptBindings())  # renders with nothing bound


def test_render_injective_in_title():
    rng = random.Random(11)
    seen = {}
    for _ in range(50):
        title = "review " + str(rng.randint(0, 10**9))
        out = render("q1", PromptBindings(review_title=title))
        assert out not in seen or seen[out] == title
        seen[out] = title


# ---------------------------------------------------------------------------
# dice + selection
# ---------------------------------------------------------------------------

def test_dice_identity_and_disjoint():
    assert dice_score("thyroid cancer", "thyroid cancer") == 1.0
    assert dice_score("thyroid cancer", "liver fibrosis") == 0.0
    assert dice_score("", "") == 0.0


def test_dice_hand_counted():
    assert dice_score("thyroid cancer screening", "thyroid cancer autopsy") == pytest.approx(
        2 * 2 / (3 + 3), abs=1e-4
    )


def test_dice_case_and_duplicates():
    assert dice_score("Cancer cancer CANCER", "cancer") == 1.0


def _example(topic_id, title):
    return ExampleReview(topic_id=topic_id, title=title, query_text="(a AND b)")


def test_select_excludes_self_and_raises_on_empty():
    topic = ReviewTopic("CD1", "anything at all")
    with pytest.raises(EmptyPoolError):
        select_related_example(topic, [_example("CD1", "anything at all")])


def test_select_tie_breaks_by_topic_id():
    topic = ReviewTopic("CD0", "target title words")
    pool = [
        _example("CD3", "unrelated"),
        _example("CD2", "target title words"),
        _example("CD1", "target title words"),
    ]
    assert select_related_example(topic, pool).topic_id == "CD1"


def test_select_singleton_pool():
    topic = ReviewTopic("CD0", "whatever")
    pool = [_example("CD9", "completely different")]
    assert select_related_example(topic, pool).topic_id == "CD9"


def test_select_is_order_insensitive():
    rng = random.Random(13)
    topic = ReviewTopic("CD0", "thyroid cancer screening in adults")
    pool = [
        _example("CD1", "thyroid cancer screening"),
        _example("CD2", "thyroid nodule ultrasound"),
        _example("CD3", "cancer screening uptake"),
        _example("CD4", "influenza testing"),
    ]
    expected = select_related_example(topic, pool)
    for _ in range(10):
        rng.shuffle(pool)
        assert select_related_example(topic, pool) == expected


# ---------------------------------------------------------------------------
# HQE fixture
# ---------------------------------------------------------------------------

def test_hqe_example_is_cd010438():
    example = hqe_example()
    assert example.topic_id == "CD010438"
    assert example.title.startswith("Thromboelastography (TEG)")


def test_hqe_query_parses():
    example = hqe_example()
    q = parse(example.query_text)  # ExampleReview already parses it; be explicit
    assert q is not None

