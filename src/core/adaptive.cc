#include "core/adaptive.h"

#include <limits>

#include "support/logging.h"

namespace astra {

AdaptiveVariable::AdaptiveVariable(uint32_t id, int num_options,
                                   int default_option)
    : id_(id), num_options_(num_options), default_(default_option),
      current_(default_option)
{
    ASTRA_ASSERT(id_ <= ProfileKey::kMaxVariable);
    ASTRA_ASSERT(num_options_ >= 1 &&
                 num_options_ - 1 <= ProfileKey::kMaxChoice);
    ASTRA_ASSERT(default_ >= 0 && default_ < num_options_);
}

void
AdaptiveVariable::initialize()
{
    current_ = default_;
    visited_ = 1;
}

bool
AdaptiveVariable::iterate()
{
    if (finished())
        return false;
    // Walk options in order, skipping the default (visited first).
    do {
        ++current_;
        if (current_ >= num_options_)
            current_ = 0;
    } while (current_ == default_);
    ++visited_;
    return !finished();
}

double
AdaptiveVariable::get_profile_value(const ProfileIndex& index) const
{
    const auto v = index.lookup(profile_key());
    return v ? *v : std::numeric_limits<double>::quiet_NaN();
}

bool
AdaptiveVariable::bind_best(const ProfileIndex& index)
{
    const int best = index.best_choice(context_, id_, num_options_);
    if (best < 0) {
        current_ = default_;
        return false;
    }
    current_ = best;
    return true;
}

std::unique_ptr<UpdateNode>
UpdateNode::leaf(VarPtr var)
{
    ASTRA_ASSERT(var != nullptr);
    auto node = std::unique_ptr<UpdateNode>(new UpdateNode());
    node->mode_ = Mode::Leaf;
    node->var_ = std::move(var);
    return node;
}

std::unique_ptr<UpdateNode>
UpdateNode::composite(Mode mode,
                      std::vector<std::unique_ptr<UpdateNode>> children)
{
    ASTRA_ASSERT(mode != Mode::Leaf);
    auto node = std::unique_ptr<UpdateNode>(new UpdateNode());
    node->mode_ = mode;
    node->children_ = std::move(children);
    return node;
}

void
UpdateNode::initialize()
{
    active_child_ = 0;
    if (mode_ == Mode::Leaf) {
        var_->initialize();
        return;
    }
    for (auto& c : children_)
        c->initialize();
}

bool
UpdateNode::finished() const
{
    switch (mode_) {
      case Mode::Leaf:
        return var_->finished();
      case Mode::Parallel:
        for (const auto& c : children_)
            if (!c->finished())
                return false;
        return true;
      case Mode::Prefix:
        return active_child_ >= children_.size();
    }
    return true;
}

void
UpdateNode::advance(const ProfileIndex& index)
{
    switch (mode_) {
      case Mode::Leaf:
        // Advance only; binding to the best happens on the *next* step
        // (via the parent or the wirer), after the final option's
        // measurement has landed in the index.
        var_->iterate();
        return;
      case Mode::Parallel:
        // Every unfinished child advances in the same mini-batch;
        // fine-grained profiling keeps their measurements independent.
        // Children that are done run at their measured best while the
        // rest continue (work conservation).
        for (auto& c : children_)
            if (c->finished())
                c->bind_best(index);
            else
                c->advance(index);
        return;
      case Mode::Prefix: {
        if (active_child_ >= children_.size())
            return;
        UpdateNode& child = *children_[active_child_];
        if (child.finished()) {
            // The child's final option was measured in the trial that
            // just completed; freeze it at its best and move right. The
            // next trial measures the successor's default under the
            // extended context — binding must not race ahead of that.
            child.bind_best(index);
            if (on_child_bound_)
                on_child_bound_(static_cast<int>(active_child_));
            ++active_child_;
            // Skip successors with nothing to explore.
            while (active_child_ < children_.size() &&
                   children_[active_child_]->finished()) {
                children_[active_child_]->bind_best(index);
                if (on_child_bound_)
                    on_child_bound_(static_cast<int>(active_child_));
                ++active_child_;
            }
            return;
        }
        child.advance(index);
        return;
      }
    }
}

void
UpdateNode::bind_best(const ProfileIndex& index)
{
    if (mode_ == Mode::Leaf) {
        var_->bind_best(index);
        return;
    }
    for (auto& c : children_)
        c->bind_best(index);
}

}  // namespace astra
